"""Multiple chessboard complexes of rook placements on an m x n board.

Columns carry the capacity vector L (at most l_j rooks in column j), rows
carry the capacity vector K (at most k_i rooks in row i); the main family
has all row capacities equal to 1.  Cells are numbered row-major:
id = (row - 1) * m + (col - 1), with 1-based rows and columns.

One enumerator, `_maximal_placements`, lists the facets of every complex
here.  Row i takes at most k_i distinct columns and uses a weight w_i of
each column it takes; `build_chessboard` gives every row weight 1, and
`fixed_subcomplex` makes one row of cap 1 per orbit, weighted by the orbit
size.  A placement is maximal iff every row that is not full left each
column it skipped with less spare capacity than w_i.  Rows are filled in
order and a branch is cut once the spare capacity the remaining rows must
still use up exceeds what they can take, so only maximal placements are
completed, and they come out lex sorted.  More than `MAX_FACETS` facets
raise `ResourceLimitError`, and so does a board whose placements may hold
more than `MAX_PLACEMENT_SIZE` rooks, before anything is enumerated: the
enumerator recurses once per rook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .simplicial import Complex, chain_boundary

SUBGROUP_ELEMENT_CAP = 100_000
MAX_FACETS = 100_000
MAX_PLACEMENT_SIZE = 600  # leaves 400 of Python's 1000 default frames to callers


@dataclass(frozen=True)
class ChessboardSpec:
    """Board dimensions plus row/column capacity vectors."""

    m: int
    n: int
    row_caps: tuple
    col_caps: tuple

    def __post_init__(self):
        if not all(isinstance(x, int) for x in (self.m, self.n, *self.row_caps, *self.col_caps)):
            raise InputError("board sizes and capacities must be integers")
        if self.m < 1 or self.n < 1:
            raise InputError("board must have at least one row and one column")
        if len(self.row_caps) != self.n:
            raise InputError(f"expected {self.n} row caps, got {len(self.row_caps)}")
        if len(self.col_caps) != self.m:
            raise InputError(f"expected {self.m} col caps, got {len(self.col_caps)}")
        if any(c < 0 for c in self.row_caps) or any(c < 0 for c in self.col_caps):
            raise InputError("capacities must be non-negative")

    def cell(self, col: int, row: int) -> int:
        """Vertex id of the cell in 1-based (column, row) coordinates."""
        return (row - 1) * self.m + (col - 1)

    def cell_coords(self, vertex: int):
        """Inverse of `cell`: vertex id -> (column, row), 1-based."""
        return vertex % self.m + 1, vertex // self.m + 1

    def is_pseudomanifold_family(self) -> bool:
        """Row caps all 1 and n = sum(col_caps) + 1."""
        return all(c == 1 for c in self.row_caps) and self.n == sum(self.col_caps) + 1

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "row_caps": list(self.row_caps),
            "col_caps": list(self.col_caps),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChessboardSpec":
        try:
            return cls(data["m"], data["n"], tuple(data["row_caps"]), tuple(data["col_caps"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed chessboard spec JSON: {exc}") from exc


def standard_spec(m: int, n: int) -> ChessboardSpec:
    """The standard chessboard complex: all capacities 1."""
    return ChessboardSpec(m, n, (1,) * n, (1,) * m)


def one_row_spec(col_caps, n: int | None = None) -> ChessboardSpec:
    """Row caps all 1; by default n = sum(col_caps) + 1 (pseudomanifold family)."""
    col_caps = tuple(col_caps)
    if n is None:
        n = sum(col_caps) + 1
    return ChessboardSpec(len(col_caps), n, (1,) * n, col_caps)


def sphere_spec(n: int) -> ChessboardSpec:
    """The boundary of a simplex on [n] as a one-column chessboard."""
    return ChessboardSpec(1, n, (1,) * n, (n - 1,))


def _maximal_placements(m: int, col_caps, row_caps, weights) -> tuple:
    """Every maximal placement on n = len(row_caps) rows and m columns, lex sorted.

    Row i takes at most row_caps[i] distinct columns, and each column it
    takes uses weights[i] of that column's capacity.  A placement is the
    tuple of its cell ids i * m + j.  Rows are filled in order, each trying
    its columns in ascending order before it ends, so the placements come
    out in lex order.  A branch is cut as soon as the remaining rows cannot
    make it maximal (see the module docstring), and a placement that leaves
    no spare capacity is complete at once, whatever rows remain.  The next
    row is reached by looping, not recursing, so the recursion depth is a
    placement's size.
    """
    n = len(row_caps)
    size = min(sum(min(k, m) for k in row_caps), sum(col_caps))
    if size > MAX_PLACEMENT_SIZE:
        raise ResourceLimitError(
            f"placements of up to {size} rooks exceed MAX_PLACEMENT_SIZE = {MAX_PLACEMENT_SIZE}"
        )
    reach = [0] * (n + 1)  # reach[i]: capacity rows i.. can still use
    for i in reversed(range(n)):
        reach[i] = reach[i + 1] + min(row_caps[i], m) * weights[i]
    spare = list(col_caps)
    total_spare = sum(spare)
    facets = []

    def extend(i, start, taken, limit, excess, prefix):
        # limit[j]: the most spare capacity column j may keep in a maximal
        # placement; excess: how far the columns are above their limits in all
        nonlocal total_spare
        while True:
            w = weights[i]
            if taken < row_caps[i]:
                base = i * m
                for j in range(start, m):
                    s = spare[j]
                    if s >= w:
                        spare[j] = s - w
                        total_spare -= w
                        cut = max(0, min(w, s - limit[j]))
                        extend(i, j + 1, taken + 1, limit, excess - cut, prefix + (base + j,))
                        spare[j] = s
                        total_spare += w
                if excess > reach[i + 1]:  # ending the row short only adds to the excess
                    return
                own = prefix[len(prefix) - taken:]
                limit = [
                    l if l < w or base + j in own else w - 1 for j, l in enumerate(limit)
                ]
                excess = sum(s - l for s, l in zip(spare, limit) if s > l)
            if excess > reach[i + 1]:
                return
            if i + 1 == n or not total_spare:  # a full board takes no more rooks
                facets.append(prefix)
                if len(facets) > MAX_FACETS:
                    raise ResourceLimitError(f"more than MAX_FACETS = {MAX_FACETS} facets")
                return
            i, start, taken = i + 1, 0, 0

    extend(0, 0, 0, list(col_caps), 0, ())
    return tuple(facets)


def build_chessboard(spec: ChessboardSpec) -> Complex:
    """The complex of rook placements respecting both capacity vectors."""
    facets = _maximal_placements(spec.m, spec.col_caps, spec.row_caps, (1,) * spec.n)
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


@dataclass(frozen=True)
class PseudomanifoldReport:
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


def _mask_vertices(mask: int) -> tuple:
    """The sorted vertex ids of the set bits of a vertex bitmask."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def check_pseudomanifold(K: Complex) -> PseudomanifoldReport:
    """Audit purity, ridge degree 2, and strong connectivity exhaustively."""
    facets = K.facets
    if facets == ((),):
        raise InputError("pseudomanifold check requires a nonempty complex")
    pure = K.is_pure()

    # ridges are keyed by vertex bitmask, so each costs one int, not a tuple
    ridge_incidence: dict = {}
    for fi, facet in enumerate(facets):
        facet_mask = sum(1 << v for v in facet)
        for v in facet:
            ridge_incidence.setdefault(facet_mask ^ (1 << v), []).append(fi)

    offending = tuple(sorted(
        _mask_vertices(mask) for mask, fs in ridge_incidence.items() if len(fs) != 2
    ))
    ridge_degrees_ok = not offending

    roots = _union_find(
        len(facets), ((fs[0], other) for fs in ridge_incidence.values() for other in fs[1:])
    )
    strongly_connected = len(set(roots)) == 1

    return PseudomanifoldReport(pure, ridge_degrees_ok, strongly_connected, offending)


def orient(spec: ChessboardSpec, K: Complex | None = None) -> dict:
    """Fundamental class of a pseudomanifold-family chessboard complex.

    Each facet omits exactly one row w; its sign is the sign of the facet
    [n] - {w} in the standard fundamental cycle of the boundary sphere,
    namely (-1)**(w-1), matching the row-order collapse onto it.
    """
    if not spec.is_pseudomanifold_family():
        raise InputError("orientation requires row caps 1 and n = sum(col_caps) + 1")
    if K is None:
        K = build_chessboard(spec)
    return {facet: facet_sign(spec, facet) for facet in K.facets}


def facet_sign(spec: ChessboardSpec, facet) -> int:
    """The sign `orient` gives a facet of a pseudomanifold-family board: (-1)**(w-1).

    The facet has one rook in each row but w, and vertex v lies in row
    v // m + 1, so w is what the facet's rows leave of 1 + 2 + ... + n.
    """
    m = spec.m
    omitted = spec.n * (spec.n + 1) // 2 - sum(v // m + 1 for v in facet)
    return 1 if omitted % 2 else -1


@dataclass(frozen=True)
class RowPermutation:
    """A permutation of [n], 1-based, as the tuple (g(1), ..., g(n))."""

    mapping: tuple

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of [1..{n}]: {self.mapping}")

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def parity(self) -> int:
        """+1 for even permutations, -1 for odd."""
        return _sort_sign(self.mapping)

    def compose(self, other: "RowPermutation") -> "RowPermutation":
        """self after other: (self * other)(i) = self(other(i))."""
        return RowPermutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "RowPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.mapping, start=1):
            inv[v - 1] = i
        return RowPermutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "RowPermutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "RowPermutation":
        mapping = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                mapping[a - 1] = b
        return cls(tuple(mapping))


def _sort_sign(values) -> int:
    """Sign of the permutation sorting a repetition-free sequence."""
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


def act_row_permutation(K: Complex, spec: ChessboardSpec, g: RowPermutation, tau: dict):
    """Apply a row permutation to the oriented complex.

    Returns (vertex_map, sign) where sign compares g . tau with tau; the
    comparison must be globally constant (+1 for even g, -1 for odd g).
    """
    if g.n != spec.n:
        raise InputError(f"permutation degree {g.n} does not match n = {spec.n}")
    vertex_map = {}
    for v in range(spec.m * spec.n):
        col, row = spec.cell_coords(v)
        vertex_map[v] = spec.cell(col, g(row))

    facet_set = set(K.facets)
    sign = None
    for facet, coeff in tau.items():
        image = [vertex_map[v] for v in facet]
        image_sorted = tuple(sorted(image))
        if image_sorted not in facet_set:
            raise AssertionError("row permutation failed to map a facet to a facet")
        rel = coeff * _sort_sign(image) * tau[image_sorted]
        if sign is None:
            sign = rel
        elif sign != rel:
            raise AssertionError("row permutation acted with inconsistent signs")
    return vertex_map, sign


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of row permutations, closed under the group operations."""

    generators: tuple
    elements: tuple = field(default=())
    orbits: tuple = field(default=())

    @classmethod
    def from_generators(cls, n: int, generators) -> "Subgroup":
        gens = tuple(g if isinstance(g, RowPermutation) else RowPermutation(tuple(g)) for g in generators)
        for g in gens:
            if g.n != n:
                raise InputError("generator degree mismatch")
        identity = RowPermutation.identity(n)
        elements = {identity.mapping}
        frontier = [identity]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = g.compose(RowPermutation(current.mapping))
                if nxt.mapping not in elements:
                    if len(elements) >= SUBGROUP_ELEMENT_CAP:
                        raise ResourceLimitError("subgroup closure exceeded the element cap")
                    elements.add(nxt.mapping)
                    frontier.append(nxt)
        element_perms = tuple(RowPermutation(e) for e in sorted(elements))

        roots = _union_find(n + 1, ((i, g(i)) for g in element_perms for i in range(1, n + 1)))
        groups: dict = {}
        for i in range(1, n + 1):
            groups.setdefault(roots[i], []).append(i)
        orbits = tuple(sorted(tuple(sorted(o)) for o in groups.values()))
        return cls(gens, element_perms, orbits)

    @property
    def n(self) -> int:
        return self.generators[0].n if self.generators else len(self.elements[0].mapping)

    @property
    def order(self) -> int:
        return len(self.elements)


def trivial_subgroup(n: int) -> Subgroup:
    return Subgroup.from_generators(n, [RowPermutation.identity(n)])


def fixed_subcomplex(spec: ChessboardSpec, H: Subgroup) -> Complex:
    """Simplicial model of the H-fixed-point set of a one-rook-per-row complex.

    Vertices are orbit barycenters b(i, j) for column i and orbit O_j,
    admissible iff |O_j| <= l_i, numbered (j-1)*m + (i-1).  A face uses each
    orbit in at most one column, with per-column orbit sizes summing to at
    most the column capacity: a placement with one row per orbit, of row
    cap 1 and weight |O_j|.
    """
    if not all(c == 1 for c in spec.row_caps):
        raise InputError("fixed subcomplex is defined for row caps all 1")
    m = spec.m
    sizes = [len(o) for o in H.orbits]
    admissible = frozenset(
        j * m + i for j, size in enumerate(sizes) for i in range(m) if size <= spec.col_caps[i]
    )
    facets = _maximal_placements(m, spec.col_caps, (1,) * len(sizes), sizes)
    return Complex(admissible, facets)


def verify_orientation(spec: ChessboardSpec, tau: dict) -> bool:
    """A fundamental class must have zero simplicial boundary."""
    return chain_boundary(tau) == {}
