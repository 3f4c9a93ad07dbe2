"""Multiple chessboard complexes of rook placements on an m x n board.

Columns carry the capacity vector L (at most l_j rooks in column j), and
every row holds at most one rook: the configuration spaces of the colored
Tverberg theorems.  Cells are numbered row-major:
id = (row - 1) * m + (col - 1), with 1-based rows and columns.

One enumerator, `_maximal_placements`, lists the facets of every complex
here.  Row i takes at most one column and uses a weight w_i of it;
`build_chessboard` gives every row weight 1, and `fixed_subcomplex` makes
one row per orbit, weighted by the orbit size.  A placement is maximal iff
every empty row left each column with less spare capacity than w_i.  Rows
are filled in order and a branch is cut once the spare capacity the
remaining rows must still use up exceeds what they can take, so only
maximal placements are completed, and they come out lex sorted.  More than
`MAX_FACETS` facets raise `ResourceLimitError`, and so does a board whose
placements may hold more than `MAX_PLACEMENT_SIZE` rooks, before anything
is enumerated: the enumerator recurses once per rook.  `one_row_spec`
refuses a board of more than `MAX_BOARD_CELLS` cells before it is formed,
and `Subgroup.from_generators` a closure of more than `SUBGROUP_ENTRY_CAP`
stored entries before it stores them.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, ResourceLimitError
from .simplicial import Complex

# Most entries a subgroup closure stores, n per element of a group on [n]:
# S_8 (40 320 elements) fits, and so does the cyclic group of a 1000-cycle.
SUBGROUP_ENTRY_CAP = 1_000_000
MAX_FACETS = 100_000
MAX_PLACEMENT_SIZE = 600  # leaves 400 of Python's 1000 default frames to callers
# Most cells of a board that `one_row_spec` forms: a one-column board of
# 5000 rows and the 991 rows of a single cap of 990 fit.
MAX_BOARD_CELLS = 100_000


class _ChessboardSpecFields(NamedTuple):
    m: int
    n: int
    col_caps: tuple


class ChessboardSpec(_ChessboardSpecFields):
    """Board dimensions plus the column capacity vector; every row holds one rook."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(
            isinstance(x, int) and not isinstance(x, bool)
            for x in (self.m, self.n, *self.col_caps)
        ):
            raise InputError("board sizes and capacities must be integers")
        if self.m < 1 or self.n < 1:
            raise InputError("board must have at least one row and one column")
        if len(self.col_caps) != self.m:
            raise InputError(f"expected {self.m} col caps, got {len(self.col_caps)}")
        if any(c < 0 for c in self.col_caps):
            raise InputError("capacities must be non-negative")
        return self

    def cell(self, col: int, row: int) -> int:
        """Vertex id of the cell in 1-based (column, row) coordinates."""
        return (row - 1) * self.m + (col - 1)

    def is_pseudomanifold_family(self) -> bool:
        """n = sum(col_caps) + 1."""
        return self.n == sum(self.col_caps) + 1

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "row_caps": [1] * self.n,
            "col_caps": list(self.col_caps),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChessboardSpec":
        try:
            spec = cls(data["m"], data["n"], tuple(data["col_caps"]))
            row_caps = data["row_caps"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed chessboard spec JSON: {exc}") from exc
        # bools and floats are not ints, however they compare
        if type(row_caps) is not list or len(row_caps) != spec.n or any(
            type(c) is not int or c != 1 for c in row_caps
        ):
            raise InputError(f"row_caps must be a list of n = {spec.n} 1s: a row holds one rook")
        return spec


def one_row_spec(col_caps, n: int | None = None) -> ChessboardSpec:
    """By default n = sum(col_caps) + 1 rows (the pseudomanifold family).

    A board of more than `MAX_BOARD_CELLS` cells, or rows, raises
    `ResourceLimitError` before its spec is formed.
    """
    col_caps = tuple(col_caps)
    if n is None:
        n = sum(col_caps) + 1
    if max(len(col_caps), 1) * n > MAX_BOARD_CELLS:  # no columns is an input error, later
        raise ResourceLimitError(
            f"a board of {len(col_caps)} columns and {n} rows exceeds "
            f"MAX_BOARD_CELLS = {MAX_BOARD_CELLS} cells"
        )
    return ChessboardSpec(len(col_caps), n, col_caps)


def sphere_spec(n: int) -> ChessboardSpec:
    """The boundary of a simplex on [n] as a one-column chessboard."""
    return ChessboardSpec(1, n, (n - 1,))


def _maximal_placements(m: int, col_caps, weights) -> tuple:
    """Every maximal placement on n = len(weights) rows and m columns, lex sorted.

    Row i takes at most one column, and uses weights[i] of its capacity.  A
    placement is the tuple of its cell ids i * m + j.  Rows are filled in
    order, each trying its columns in ascending order before it stays
    empty, so the placements come out in lex order.  A branch is cut as
    soon as the remaining rows cannot make it maximal (see the module
    docstring), and a placement that leaves no spare capacity is complete
    at once, whatever rows remain.  An empty row is passed by looping, not
    recursing, so the recursion depth is a placement's size.

    Each rook lowers the excess by what its column was above its limit, at
    most w; a row that stays empty caps the limit of every column at w - 1
    and recounts the excess once.
    """
    n = len(weights)
    size = min(n, sum(col_caps))
    if size > MAX_PLACEMENT_SIZE:
        raise ResourceLimitError(
            f"placements of up to {size} rooks exceed MAX_PLACEMENT_SIZE = {MAX_PLACEMENT_SIZE}"
        )
    reach = [0] * (n + 1)  # reach[i]: capacity rows i.. can still use
    for i in reversed(range(n)):
        reach[i] = reach[i + 1] + weights[i]
    spare = list(col_caps)
    total_spare = sum(spare)
    facets = []

    def extend(i, limit, excess, prefix):
        # limit[j]: the most spare capacity column j may keep in a maximal
        # placement; excess: how far the columns are above their limits in all
        nonlocal total_spare
        while True:
            if excess > reach[i]:
                return
            if i == n or not total_spare:  # a full board takes no more rooks
                facets.append(prefix)
                if len(facets) > MAX_FACETS:
                    raise ResourceLimitError(f"more than MAX_FACETS = {MAX_FACETS} facets")
                return
            w = weights[i]
            for j in range(m):
                s = spare[j]
                if s >= w:
                    spare[j] = s - w
                    total_spare -= w
                    over = s - limit[j]
                    cut = w if over > w else over if over > 0 else 0
                    extend(i + 1, limit, excess - cut, prefix + (i * m + j,))
                    spare[j] = s
                    total_spare += w
            if excess > reach[i + 1]:  # staying empty only adds to the excess
                return
            limit = [l if l < w else w - 1 for l in limit]
            excess = sum([s - l for s, l in zip(spare, limit) if s > l])
            i += 1

    extend(0, list(col_caps), 0, ())
    return tuple(facets)


def build_chessboard(spec: ChessboardSpec) -> Complex:
    """The complex of rook placements: one rook per row, l_j per column j."""
    facets = _maximal_placements(spec.m, spec.col_caps, (1,) * spec.n)
    return Complex(frozenset(range(spec.m * spec.n)), facets)


def _union_find(size: int, pairs) -> list:
    """The root of each of range(size) once every pair is joined into one class."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(size)]


class PseudomanifoldReport(NamedTuple):
    pure: bool
    ridge_degrees_ok: bool
    strongly_connected: bool
    offending_faces: tuple

    @property
    def all_ok(self) -> bool:
        return self.pure and self.ridge_degrees_ok and self.strongly_connected

    def to_json(self) -> dict:
        return {
            "pure": self.pure,
            "ridge_degrees_ok": self.ridge_degrees_ok,
            "strongly_connected": self.strongly_connected,
            "offending_faces": [list(f) for f in self.offending_faces],
        }


def _vertex_weights(facets) -> list:
    """3**v for each vertex v up to the largest in the facets.

    A vertex set is keyed exactly by the sum of its weights, a base-3 number
    of digits 0 and 1.  (Bitmask keys, sums of 2**v, collide in bulk: CPython
    hashes an int modulo 2**61 - 1, so 2**v and 2**(v + 61) hash alike.)
    """
    return [3**v for v in range(max((max(f) for f in facets if f), default=0) + 1)]


def check_pseudomanifold(K: Complex) -> PseudomanifoldReport:
    """Audit purity, ridge degree 2, and strong connectivity exhaustively."""
    facets = K.facets
    if facets == ((),):
        raise InputError("pseudomanifold check requires a nonempty complex")
    pure = K.is_pure()

    # ridges are keyed by `_vertex_weights`, so each costs one int, not a tuple
    weights = _vertex_weights(facets)
    ridge_incidence: dict = {}
    for fi, facet in enumerate(facets):
        facet_key = sum([weights[v] for v in facet])
        for v in facet:
            ridge_incidence.setdefault(facet_key - weights[v], []).append(fi)

    offending = tuple(sorted(
        tuple(v for v, w in enumerate(weights) if key // w % 3)
        for key, fs in ridge_incidence.items() if len(fs) != 2
    ))
    ridge_degrees_ok = not offending

    roots = _union_find(
        len(facets), ((fs[0], other) for fs in ridge_incidence.values() for other in fs[1:])
    )
    strongly_connected = len(set(roots)) == 1

    return PseudomanifoldReport(pure, ridge_degrees_ok, strongly_connected, offending)


def orient(spec: ChessboardSpec, K: Complex) -> dict:
    """Fundamental class of K, the complex of a pseudomanifold-family spec.

    Each facet omits exactly one row w; its sign is the sign of the facet
    [n] - {w} in the standard fundamental cycle of the boundary sphere,
    namely (-1)**(w-1), matching the row-order collapse onto it.
    """
    if not spec.is_pseudomanifold_family():
        raise InputError("orientation requires n = sum(col_caps) + 1")
    m, n = spec.m, spec.n
    return {facet: facet_sign(m, n, facet) for facet in K.facets}


def facet_sign(m: int, n: int, facet) -> int:
    """The sign `orient` gives a facet of a pseudomanifold-family board of m
    columns and n rows: (-1)**(w-1), read from the facet's own rows.

    The facet has one rook in each row but w, and vertex v lies in row
    v // m + 1, so w is what the facet's rows leave of 1 + 2 + ... + n.
    Only m and n are read, so a board needs no spec to sign its facets.
    """
    omitted = n * (n + 1) // 2 - len(facet) - sum([v // m for v in facet])
    return 1 if omitted % 2 else -1


class _RowPermutationFields(NamedTuple):
    mapping: tuple


class RowPermutation(_RowPermutationFields):
    """A permutation of [n], 1-based, as the tuple (g(1), ..., g(n))."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of [1..{n}]: {self.mapping}")
        return self


class Subgroup(NamedTuple):
    """The order and the orbits on [n] of a group of row permutations."""

    order: int
    orbits: tuple

    @classmethod
    def from_generators(cls, n: int, generators) -> "Subgroup":
        """The group the `RowPermutation`s generate, closed as a set of tuples.

        Its orbits are the classes of i ~ g(i) over the generators g.  A
        closure that would store more than `SUBGROUP_ENTRY_CAP` entries,
        n per element, raises `ResourceLimitError` before it does.
        """
        gens = [g.mapping for g in generators]
        if any(len(g) != n for g in gens):
            raise InputError("generator degree mismatch")
        frontier = [tuple(range(1, n + 1))]
        elements = set(frontier)
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = tuple([g[i - 1] for i in current])  # g after current
                if nxt not in elements:
                    if (len(elements) + 1) * n > SUBGROUP_ENTRY_CAP:
                        raise ResourceLimitError(f"closure past SUBGROUP_ENTRY_CAP = {SUBGROUP_ENTRY_CAP} entries")
                    elements.add(nxt)
                    frontier.append(nxt)
        roots = _union_find(n + 1, ((i, g[i - 1]) for g in gens for i in range(1, n + 1)))
        orbits: dict = {}  # root: its class, in ascending order
        for i in range(1, n + 1):
            orbits.setdefault(roots[i], []).append(i)
        return cls(len(elements), tuple(sorted(map(tuple, orbits.values()))))


def fixed_subcomplex(spec: ChessboardSpec, H: Subgroup) -> Complex:
    """Simplicial model of the H-fixed-point set of a one-rook-per-row complex.

    Vertices are orbit barycenters b(i, j) for column i and orbit O_j,
    admissible iff |O_j| <= l_i, numbered as the cell of column i in row j,
    (j-1)*m + (i-1).  A face uses each orbit in at most one column, with
    per-column orbit sizes summing to at most the column capacity: a
    placement with one row per orbit, of weight |O_j|.
    """
    sizes = [len(o) for o in H.orbits]
    admissible = frozenset(
        spec.cell(i, j)
        for j, size in enumerate(sizes, start=1)
        for i, cap in enumerate(spec.col_caps, start=1)
        if size <= cap
    )
    facets = _maximal_placements(spec.m, spec.col_caps, sizes)
    return Complex(admissible, facets)


def verify_orientation(tau: dict) -> bool:
    """A fundamental class must have zero simplicial boundary.

    Ridges are keyed by `_vertex_weights`, as in `check_pseudomanifold`: the
    ridge of a facet without its vertex v carries the facet's sign times
    (-1)**(position of v), the sign of the simplicial boundary.
    """
    weights = _vertex_weights(tau)
    boundary: dict = {}
    for facet, sign in tau.items():
        facet_key = sum([weights[v] for v in facet])
        for v in facet:
            ridge = facet_key - weights[v]
            value = boundary.get(ridge, 0) + sign
            if value:
                boundary[ridge] = value
            else:
                boundary.pop(ridge, None)
            sign = -sign
    return not boundary
