"""Column-collapse maps between chessboard complexes and their degrees.

A surjection theta : [m'] -> [m] merges board columns; capacities add over
fibers.  The induced simplicial map between pseudomanifold-family complexes
is orientation preserving, and its degree is the factorial ratio
prod(b_i!) / prod(a_j!).  Degrees are exact big integers; mod-p reduction
happens only in the obstruction report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .chessboard import (
    MAX_FACETS,
    ChessboardSpec,
    RowPermutation,
    build_chessboard,
    facet_sign,
    one_row_spec,
    sphere_spec,
)
from .errors import InputError, ResourceLimitError

# Largest p^k an obstruction report takes.  The degree (p^k - 1)! / prod(L!)
# is printed in decimal, and str() refuses ints of more than 4300 digits.
MAX_OBSTRUCTION_ORDER = 16


@dataclass(frozen=True)
class CollapseTheta:
    """A surjection of column index sets, 1-based: assignment[j-1] = theta(j)."""

    source_columns: int
    target_columns: int
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != self.source_columns:
            raise InputError("theta assignment length must equal the source column count")
        if set(self.assignment) != set(range(1, self.target_columns + 1)):
            raise InputError(f"theta must be surjective onto [1..{self.target_columns}]")

    def __call__(self, j: int) -> int:
        return self.assignment[j - 1]

    def collapse_caps(self, caps) -> tuple:
        caps = tuple(caps)
        if len(caps) != self.source_columns:
            raise InputError("cap vector length must equal the source column count")
        out = [0] * self.target_columns
        for j, a in enumerate(caps, start=1):
            out[self(j) - 1] += a
        return tuple(out)

    def compose(self, first: "CollapseTheta") -> "CollapseTheta":
        """self after first: [m''] -> [m'] -> [m]."""
        if first.target_columns != self.source_columns:
            raise InputError("collapse maps do not compose")
        return CollapseTheta(
            first.source_columns,
            self.target_columns,
            tuple(self(first(j)) for j in range(1, first.source_columns + 1)),
        )

    @classmethod
    def constant(cls, source_columns: int) -> "CollapseTheta":
        return cls(source_columns, 1, (1,) * source_columns)

    @classmethod
    def identity(cls, columns: int) -> "CollapseTheta":
        return cls(columns, columns, tuple(range(1, columns + 1)))

    @classmethod
    def blocks(cls, fiber_sizes) -> "CollapseTheta":
        """Consecutive fibers of the given sizes: the canonical L-collapse."""
        assignment = []
        for i, size in enumerate(fiber_sizes, start=1):
            assignment.extend([i] * size)
        return cls(len(assignment), len(tuple(fiber_sizes)), tuple(assignment))


@dataclass(frozen=True)
class CollapseResult:
    target_spec: ChessboardSpec
    vertex_map: dict
    facet_map: dict


def _cell_map(theta: CollapseTheta, source: ChessboardSpec, target: ChessboardSpec) -> dict:
    vm = {}
    for v in range(source.m * source.n):
        col, row = source.cell_coords(v)
        vm[v] = target.cell(theta(col), row)
    return vm


def collapse_complex(theta: CollapseTheta, source: ChessboardSpec) -> CollapseResult:
    """The simplicial map merging columns of `source` along theta.

    Verifies that every facet maps to a face of the target and that the map
    commutes with the row-permutation action (checked on the generating
    adjacent transpositions).
    """
    if not all(c == 1 for c in source.row_caps):
        raise InputError("collapse maps are defined for row caps all 1")
    target = ChessboardSpec(
        theta.target_columns, source.n, source.row_caps, theta.collapse_caps(source.col_caps)
    )
    vm = _cell_map(theta, source, target)
    K = build_chessboard(source)
    T = build_chessboard(target)
    facet_map = {}
    for facet in K.facets:
        image = tuple(sorted(vm[v] for v in facet))
        if not T.is_face(image):
            raise AssertionError("collapse image of a facet is not a face of the target")
        facet_map[facet] = image

    # equivariance against adjacent row transpositions
    for r in range(1, source.n):
        g = RowPermutation.from_cycles(source.n, [(r, r + 1)])
        for facet in K.facets:
            src_g = tuple(sorted(_row_act(source, g, v) for v in facet))
            lhs = tuple(sorted(vm[v] for v in src_g))
            rhs = tuple(sorted(_row_act(target, g, vm[v]) for v in facet))
            if lhs != rhs:
                raise AssertionError("collapse map failed row-permutation equivariance")
    return CollapseResult(target, vm, facet_map)


def _row_act(spec: ChessboardSpec, g: RowPermutation, v: int) -> int:
    col, row = spec.cell_coords(v)
    return spec.cell(col, g(row))


def degree_formula(caps, theta: CollapseTheta) -> int:
    """deg = prod(b_i!) / prod(a_j!) with b = theta-collapsed caps; exact."""
    caps = tuple(caps)
    if any(a < 0 for a in caps):
        raise InputError("capacities must be non-negative")
    b = theta.collapse_caps(caps)
    num = math.prod(math.factorial(x) for x in b)
    den = math.prod(math.factorial(x) for x in caps)
    if num % den:
        raise AssertionError("degree formula produced a non-integer")
    return num // den


def degree_by_counting(theta: CollapseTheta, source: ChessboardSpec) -> int:
    """Signed count of source facets over one fixed target facet."""
    return sum(preimage_signs(theta, source))


def preimage_signs(theta: CollapseTheta, source: ChessboardSpec) -> list:
    """Orientation signs of the source facets over one fixed target facet.

    The target facet is the image of the source's first facet, which puts
    rows 1..n-1 in order, each in the first column with room left.  Its
    preimage is enumerated directly (`preimage`), and each source facet's
    `orient` sign is multiplied by the target facet's.  The signs do not
    depend on `degree_formula`; only the size guard reads it, so that a
    preimage of more than `MAX_FACETS` facets raises `ResourceLimitError`
    before it is enumerated.
    """
    if not source.is_pseudomanifold_family():
        raise InputError("degree by counting requires the pseudomanifold condition")
    target = ChessboardSpec(
        theta.target_columns, source.n, source.row_caps, theta.collapse_caps(source.col_caps)
    )
    count = degree_formula(source.col_caps, theta)
    if count > MAX_FACETS:
        raise ResourceLimitError(f"{count} preimage facets exceed MAX_FACETS = {MAX_FACETS}")
    first = [j for j, a in enumerate(source.col_caps, start=1) for _ in range(a)]
    target_facet = tuple(target.cell(theta(j), row) for row, j in enumerate(first, start=1))
    target_sign = facet_sign(target, target_facet)
    return [sign * target_sign for sign in preimage(theta, source, target_facet).values()]


def preimage(theta: CollapseTheta, source: ChessboardSpec, target_facet) -> dict:
    """The source facets that collapse onto `target_facet`, each with its `orient` sign.

    A source facet lies over the target facet iff it uses the same rows and
    puts each row of target column t in a column of theta^-1(t).  So the
    rows of each target column are dealt out to the columns of its fiber,
    a_j rows to column j, and one deal per target column makes one facet.
    The deals grow column by column, with no recursion.
    """
    m, mt = source.m, theta.target_columns
    rows = [[] for _ in range(mt)]
    for v in target_facet:
        rows[v % mt].append(v // mt)
    deals = []
    for t, own in enumerate(rows, start=1):
        partial = [((), tuple(own))]  # (source cells dealt, rows left)
        for j, a in enumerate(source.col_caps):
            if theta.assignment[j] != t:
                continue
            grown = []
            for cells, left in partial:
                for block in itertools.combinations(left, a):
                    taken = set(block)
                    grown.append(
                        (cells + tuple(r * m + j for r in block),
                         tuple(r for r in left if r not in taken))
                    )
            partial = grown
        deals.append([cells for cells, left in partial if not left])
    facets = (tuple(sorted(itertools.chain(*deal))) for deal in itertools.product(*deals))
    return {facet: facet_sign(source, facet) for facet in facets}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def legendre_valuation(p: int, m: int) -> int:
    """ord_p(m!) = floor(m/p) + floor(m/p^2) + ..."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if m < 0:
        raise InputError("m must be non-negative")
    total = 0
    power = p
    while power <= m:
        total += m // power
        power *= p
    return total


def multiplicity_vector(p: int, k: int) -> tuple:
    """L = (1, p, ..., p^(k-1)) repeated (p-1) times."""
    return tuple(p**a for _ in range(p - 1) for a in range(k))


def elementary_abelian_subgroups(p: int, k: int) -> list:
    """All subgroups of (Z_p)^k, i.e. all subspaces of F_p^k, sorted.

    Each subspace of dimension h has exactly one basis in reduced row
    echelon form: h rows with a leading 1 in pivot columns c_1 < ... < c_h,
    zeros in the other pivot columns, and any entries in the non-pivot
    columns right of their own pivot.  So every pivot set and every choice
    of free entries gives one subspace, with no dedupe, and each is expanded
    into its p^h elements, a sorted tuple of vectors (tuples over F_p).

    Acting on [p^k] by translation, a subgroup H acts freely (u + v = v only
    for u = 0), so each of its orbits is a coset with |H| elements.
    """
    subspaces = []
    for h in range(k + 1):
        for pivots in itertools.combinations(range(k), h):
            free = [
                (i, j) for i, c in enumerate(pivots) for j in range(c + 1, k) if j not in pivots
            ]
            for entries in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == c) for j in range(k)] for c in pivots]
                for (i, j), a in zip(free, entries):
                    rows[i][j] = a
                elements = (
                    tuple(sum(a * row[j] for a, row in zip(coeffs, rows)) % p for j in range(k))
                    for coeffs in itertools.product(range(p), repeat=h)
                )
                subspaces.append(tuple(sorted(elements)))
    return sorted(subspaces)


def _free_fixed_dimension(spec: ChessboardSpec, order: int) -> int:
    """Dimension of the fixed subcomplex of a group of `order` acting freely on the rows.

    Every orbit has `order` rows, and a fixed face places whole orbits,
    at most l_j // order of them in column j.  So the largest fixed face
    has min(n // order, sum_j l_j // order) orbits, one vertex each.
    """
    return min(spec.n // order, sum(l // order for l in spec.col_caps)) - 1


@dataclass(frozen=True)
class SubgroupResult:
    descriptor: str
    order: int
    dim_fixed_source: int
    dim_fixed_target: int
    inequality_holds: bool

    def to_json(self) -> dict:
        return {
            "subgroup": self.descriptor,
            "order": self.order,
            "dim_fixed_chessboard": self.dim_fixed_source,
            "dim_fixed_sphere": self.dim_fixed_target,
            "inequality_holds": self.inequality_holds,
        }


@dataclass(frozen=True)
class ObstructionReport:
    p: int
    k: int
    d: int
    degree: int
    degree_mod_p: int
    degree_power_mod_p: int
    subgroup_results: tuple

    @property
    def verdict(self) -> bool:
        return self.degree_mod_p != 0 and all(s.inequality_holds for s in self.subgroup_results)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "d": self.d,
            "degree": str(self.degree),
            "degree_mod_p": self.degree_mod_p,
            "degree_power_mod_p": self.degree_power_mod_p,
            "subgroups": [s.to_json() for s in self.subgroup_results],
            "verdict": self.verdict,
        }


def obstruction_report(p: int, k: int, d: int) -> ObstructionReport:
    """The two computable obstruction ingredients for r = p^k parts.

    (A) the collapse-map degree and its residue mod p; (B) the fixed-point
    dimension comparison for every subgroup H of the regular (Z_p)^k action
    on [p^k].  H acts freely, so both dimensions, of the one-row board and
    of the sphere, come in closed form from |H| (`_free_fixed_dimension`);
    no fixed subcomplex is built.  p^k above `MAX_OBSTRUCTION_ORDER` raises
    `ResourceLimitError` before anything is computed, primality included.
    """
    if k < 1 or d < 1:
        raise InputError("k and d must be positive")
    # Before the trial division in is_prime, which a large p would make slow;
    # 2^k > MAX iff k >= MAX.bit_length(), so p^k is never formed for a large k.
    limit = MAX_OBSTRUCTION_ORDER
    if p >= 2 and (p > limit or k >= limit.bit_length() or p**k > limit):
        raise ResourceLimitError(f"p^k = {p}^{k} exceeds MAX_OBSTRUCTION_ORDER = {limit}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")

    caps = multiplicity_vector(p, k)
    theta = CollapseTheta.constant(len(caps))
    degree = degree_formula(caps, theta)

    source = one_row_spec(caps)
    target = sphere_spec(p**k)
    results = []
    for subspace in elementary_abelian_subgroups(p, k):
        order = len(subspace)
        dim_src = _free_fixed_dimension(source, order)
        dim_tgt = _free_fixed_dimension(target, order)
        basis = [v for v in subspace if v != (0,) * k]
        descriptor = "<" + ", ".join(str(v) for v in basis) + ">" if basis else "<trivial>"
        results.append(SubgroupResult(descriptor, order, dim_src, dim_tgt, dim_src <= dim_tgt))
    return ObstructionReport(
        p, k, d, degree, degree % p, pow(degree, d + 1, p), tuple(results)
    )
