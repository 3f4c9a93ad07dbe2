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
    Subgroup,
    build_chessboard,
    facet_sign,
    fixed_subcomplex,
    one_row_spec,
    sphere_spec,
)
from .errors import InputError, ResourceLimitError, guard_from_env

OBSTRUCTION_GUARD_ENV = "TVERROOK_OBSTRUCTION_GUARD"
DEFAULT_OBSTRUCTION_GUARD = 16


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
    """All subgroups of (Z_p)^k, i.e. all subspaces of F_p^k.

    Each subgroup is a sorted tuple of vectors (tuples over F_p).  The count
    is cross-checked against the Gaussian binomial sum.
    """
    vectors = list(itertools.product(range(p), repeat=k))

    def span(gens) -> tuple:
        elements = {(0,) * k}
        frontier = [(0,) * k]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % p for a, b in zip(cur, g))
                if nxt not in elements:
                    elements.add(nxt)
                    frontier.append(nxt)
        return tuple(sorted(elements))

    subspaces = {span([])}
    for size in range(1, k + 1):
        for gens in itertools.combinations(vectors[1:], size):
            subspaces.add(span(gens))

    expected = sum(_gaussian_binomial(k, h, p) for h in range(k + 1))
    if len(subspaces) != expected:
        raise AssertionError("subspace enumeration disagrees with the Gaussian binomial count")
    return sorted(subspaces)


def _gaussian_binomial(n: int, h: int, p: int) -> int:
    num = den = 1
    for i in range(h):
        num *= p ** (n - i) - 1
        den *= p ** (h - i) - 1
    return num // den


def regular_action_subgroup(p: int, k: int, subspace) -> Subgroup:
    """The subspace acting on [p^k] by translation of group elements."""
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i + 1 for i, v in enumerate(vectors)}
    perms = []
    for u in subspace:
        mapping = tuple(
            index[tuple((a + b) % p for a, b in zip(v, u))] for v in vectors
        )
        perms.append(RowPermutation(mapping))
    return Subgroup.from_generators(p**k, perms)


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


def obstruction_report(p: int, k: int, d: int, guard: int | None = None) -> ObstructionReport:
    """The two computable obstruction ingredients for r = p^k parts.

    (A) the collapse-map degree and its residue mod p; (B) the fixed-point
    dimension comparison for every subgroup of the regular (Z_p)^k action.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if k < 1 or d < 1:
        raise InputError("k and d must be positive")
    limit = guard if guard is not None else guard_from_env(
        OBSTRUCTION_GUARD_ENV, DEFAULT_OBSTRUCTION_GUARD
    )
    r = p**k
    if r > limit:
        raise ResourceLimitError(f"p^k = {r} exceeds the guard ({limit})")

    caps = multiplicity_vector(p, k)
    theta = CollapseTheta.constant(len(caps))
    degree = degree_formula(caps, theta)

    source = one_row_spec(caps)
    target = sphere_spec(r)
    results = []
    for subspace in elementary_abelian_subgroups(p, k):
        H = regular_action_subgroup(p, k, subspace)
        dim_src = fixed_subcomplex(source, H).dimension
        dim_tgt = fixed_subcomplex(target, H).dimension
        basis = [v for v in subspace if v != (0,) * k]
        descriptor = "<" + ", ".join(str(v) for v in basis) + ">" if basis else "<trivial>"
        results.append(
            SubgroupResult(descriptor, len(subspace), dim_src, dim_tgt, dim_src <= dim_tgt)
        )
    return ObstructionReport(
        p, k, d, degree, degree % p, pow(degree, d + 1, p), tuple(results)
    )
