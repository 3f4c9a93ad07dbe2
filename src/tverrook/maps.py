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
from typing import NamedTuple

from .chessboard import MAX_FACETS, ChessboardSpec, facet_sign, one_row_spec, sphere_spec
from .errors import InputError, ResourceLimitError, shown

# Largest p^k an obstruction report takes.  The degree (p^k - 1)! / prod(L!)
# is printed in decimal, and str() refuses ints of more than 4300 digits.
MAX_OBSTRUCTION_ORDER = 16

# Largest p a valuation takes: is_prime's trial division runs up to sqrt(p).
MAX_VALUATION_PRIME = 10**9


class _CollapseThetaFields(NamedTuple):
    source_columns: int
    target_columns: int
    assignment: tuple


class CollapseTheta(_CollapseThetaFields):
    """A surjection of column index sets, 1-based: assignment[j-1] = theta(j)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.assignment) != self.source_columns:
            raise InputError("theta assignment length must equal the source column count")
        # more target columns than source columns cannot be onto, and the
        # set of a huge target would not fit in memory
        if self.target_columns > self.source_columns or (
            set(self.assignment) != set(range(1, self.target_columns + 1))
        ):
            raise InputError(f"theta must be surjective onto [1..{self.target_columns}]")
        return self

    def collapse_caps(self, caps) -> tuple:
        """The caps of the target columns: `caps`, one per source column, added over fibers."""
        out = [0] * self.target_columns
        for t, a in zip(self.assignment, caps):
            out[t - 1] += a
        return tuple(out)


def _factorial_ratio(b, a) -> int:
    """prod(b_i!) / prod(a_j!), which must be an integer."""
    num = math.prod(map(math.factorial, b))
    den = math.prod(map(math.factorial, a))
    if num % den:
        raise AssertionError("degree formula produced a non-integer")
    return num // den


def preimage_signs(theta: CollapseTheta, source: ChessboardSpec) -> tuple:
    """(target caps b, degree by the formula, signs over one target facet) of a collapse.

    The collapsed caps, the formula prod(b!)/prod(a!) and the target facet
    are each computed once.  The target facet is the image of the source's
    first facet, which puts rows 1..n-1 in order, each in the first column
    with room left, so it omits row n.  Its preimage is enumerated directly
    (`preimage`), and each source facet's `orient` sign, read from its own
    rows, is multiplied by the target facet's.  The signs do not depend on
    the formula; only the size guard reads it, so that a preimage of more
    than `MAX_FACETS` facets raises `ResourceLimitError` before it is
    enumerated.  The source is a pseudomanifold-family board.
    """
    caps = source.col_caps
    target_caps = theta.collapse_caps(caps)
    degree = _factorial_ratio(target_caps, caps)
    if degree > MAX_FACETS:
        raise ResourceLimitError(f"{shown(degree)} preimage facets exceed MAX_FACETS = {MAX_FACETS}")
    mt = theta.target_columns
    columns = [t for t, a in zip(theta.assignment, caps) for _ in range(a)]
    target_facet = tuple([row * mt + t - 1 for row, t in enumerate(columns)])
    target_sign = facet_sign(mt, source.n, target_facet)
    over = preimage(theta, source, target_facet)
    return target_caps, degree, [sign * target_sign for sign in over.values()]


def preimage(theta: CollapseTheta, source: ChessboardSpec, target_facet) -> dict:
    """The source facets that collapse onto `target_facet`, each with its `orient` sign.

    A source facet lies over the target facet iff it uses the same rows and
    puts each row of target column t in a column of theta^-1(t).  So the
    rows of each target column are dealt out to the columns of its fiber,
    a_j rows to column j, and one deal per target column makes one facet.
    The fibers are grouped once.  The deals grow column by column, with no
    recursion, and the last column of a fiber takes the rows left when
    they are as many as its cap.  Each facet is signed from its own rows
    (`facet_sign`).
    """
    m, n, mt = source.m, source.n, theta.target_columns
    fibers = [[] for _ in range(mt)]  # (source column, cap) over each target column
    for j, (t, a) in enumerate(zip(theta.assignment, source.col_caps)):
        fibers[t - 1].append((j, a))
    rows = [[] for _ in range(mt)]
    for v in target_facet:
        rows[v % mt].append(v // mt)
    deals = []
    for fiber, own in zip(fibers, rows):  # theta is onto, so no fiber is empty
        *dealt, (last, rest) = fiber
        partial = [((), tuple(own))]  # (source cells dealt, rows left)
        for j, a in dealt:
            partial = [
                (cells + tuple([r * m + j for r in block]),
                 tuple([r for r in left if r not in block]))
                for cells, left in partial
                for block in itertools.combinations(left, a)
            ]
        deals.append(
            [cells + tuple([r * m + last for r in left]) for cells, left in partial if len(left) == rest]
        )
    facets = (tuple(sorted(itertools.chain(*deal))) for deal in itertools.product(*deals))
    return {facet: facet_sign(m, n, facet) for facet in facets}


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


def power_exceeds(p: int, k: int, limit: int) -> bool:
    """p^k > limit for p >= 2 and k >= 1, without forming p^k for a large k.

    2^k > limit iff k >= limit.bit_length(), and p^k >= 2^k.  Checked before
    is_prime's trial division, which a large p would make slow; p < 2 is
    left to that check.
    """
    return p >= 2 and (p > limit or k >= limit.bit_length() or p**k > limit)


def legendre_valuation(p: int, m: int) -> int:
    """ord_p(m!) = floor(m/p) + floor(m/p^2) + ..."""
    if p > MAX_VALUATION_PRIME:
        raise ResourceLimitError(f"p = {p} exceeds MAX_VALUATION_PRIME = {MAX_VALUATION_PRIME}")
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


class SubgroupResult(NamedTuple):
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


class ObstructionReport(NamedTuple):
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
    if power_exceeds(p, k, MAX_OBSTRUCTION_ORDER):
        raise ResourceLimitError(
            f"p^k = {p}^{k} exceeds MAX_OBSTRUCTION_ORDER = {MAX_OBSTRUCTION_ORDER}"
        )
    if not is_prime(p):
        raise InputError(f"{p} is not prime")

    caps = multiplicity_vector(p, k)
    degree = _factorial_ratio((p**k - 1,), caps)  # the collapse onto one column

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
