"""Multiple chessboard complexes of rook placements on an m x n board.

Columns carry the capacity vector L (at most l_j rooks in column j), rows
carry the capacity vector K (at most k_i rooks in row i); the main family
has all row capacities equal to 1.  Cells are numbered row-major:
id = (row - 1) * m + (col - 1), with 1-based rows and columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError
from .simplicial import Complex, antichain, chain_boundary

SUBGROUP_ELEMENT_CAP = 100_000


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


def _multiset_permutations(counts: list):
    """All distinct sequences using counts[j] copies of each symbol j."""
    total = sum(counts)
    seq = []

    def rec():
        if len(seq) == total:
            yield tuple(seq)
            return
        for j in range(len(counts)):
            if counts[j] > 0:
                counts[j] -= 1
                seq.append(j)
                yield from rec()
                seq.pop()
                counts[j] += 1

    yield from rec()


def _facets_pm_family(spec: ChessboardSpec) -> list:
    """Facets when n = sum(col_caps) + 1: omit one row, fill every column."""
    facets = []
    for omitted in range(1, spec.n + 1):
        rows = [r for r in range(1, spec.n + 1) if r != omitted]
        for cols in _multiset_permutations(list(spec.col_caps)):
            facets.append(tuple(spec.cell(j + 1, r) for j, r in zip(cols, rows)))
    return facets


def _facets_one_rook_rows(spec: ChessboardSpec) -> list:
    """Maximal placements when every row cap is 1.

    A placement is maximal iff no row is unused or no column has spare
    capacity.  Rows are assigned in order; each takes a column or stays empty.
    """
    m, n = spec.m, spec.n
    caps = list(spec.col_caps)
    facets = []
    placement = []

    def rec(row, unused_rows, spare):
        if row > n:
            if unused_rows == 0 or spare == 0:
                facets.append(tuple(placement))
            return
        for j in range(m):
            if caps[j] > 0:
                caps[j] -= 1
                placement.append(spec.cell(j + 1, row))
                rec(row + 1, unused_rows, spare - 1)
                placement.pop()
                caps[j] += 1
        rec(row + 1, unused_rows + 1, spare)

    rec(1, 0, sum(caps))
    return facets


def _facets_general(spec: ChessboardSpec) -> list:
    """Maximal placements for arbitrary caps, by cell-wise enumeration."""
    m, n = spec.m, spec.n
    if m * n > 42:
        raise ResourceLimitError(f"general chessboard enumeration capped at 42 cells, got {m * n}")
    row_left = list(spec.row_caps)
    col_left = list(spec.col_caps)
    cells = [(spec.cell(j + 1, i + 1), j, i) for i in range(n) for j in range(m)]
    facets = []
    placement = []

    def maximal() -> bool:
        chosen = set(placement)
        return all(
            vid in chosen or row_left[i] == 0 or col_left[j] == 0 for vid, j, i in cells
        )

    def rec(idx):
        if idx == len(cells):
            if maximal():
                facets.append(tuple(placement))
            return
        vid, j, i = cells[idx]
        if row_left[i] > 0 and col_left[j] > 0:
            row_left[i] -= 1
            col_left[j] -= 1
            placement.append(vid)
            rec(idx + 1)
            placement.pop()
            row_left[i] += 1
            col_left[j] += 1
        rec(idx + 1)

    rec(0)
    return facets


def build_chessboard(spec: ChessboardSpec) -> Complex:
    """The complex of rook placements respecting both capacity vectors."""
    if spec.is_pseudomanifold_family():
        facets = _facets_pm_family(spec)
    elif all(c == 1 for c in spec.row_caps):
        facets = _facets_one_rook_rows(spec)
    else:
        facets = _facets_general(spec)
    universe = frozenset(range(spec.m * spec.n))
    return Complex(universe, antichain(facets))


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


def check_pseudomanifold(K: Complex) -> PseudomanifoldReport:
    """Audit purity, ridge degree 2, and strong connectivity exhaustively."""
    facets = K.facets
    if facets == ((),):
        raise InputError("pseudomanifold check requires a nonempty complex")
    pure = K.is_pure()

    ridge_incidence: dict = {}
    for fi, facet in enumerate(facets):
        for idx in range(len(facet)):
            ridge = facet[:idx] + facet[idx + 1:]
            ridge_incidence.setdefault(ridge, []).append(fi)

    offending = tuple(sorted(r for r, fs in ridge_incidence.items() if len(fs) != 2))
    ridge_degrees_ok = not offending

    # union-find over facets sharing a ridge
    parent = list(range(len(facets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fs in ridge_incidence.values():
        r0 = find(fs[0])
        for other in fs[1:]:
            parent[find(other)] = r0
    strongly_connected = len({find(i) for i in range(len(facets))}) == 1

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
    all_rows = set(range(1, spec.n + 1))
    chain = {}
    for facet in K.facets:
        used = {spec.cell_coords(v)[1] for v in facet}
        (omitted,) = all_rows - used
        chain[facet] = (-1) ** (omitted - 1)
    return chain


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
        inversions = sum(
            1
            for a, b in itertools.combinations(range(self.n), 2)
            if self.mapping[a] > self.mapping[b]
        )
        return -1 if inversions % 2 else 1

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

        # orbit partition of [n]
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in element_perms:
            for i in range(1, n + 1):
                parent[find(i)] = find(g(i))
        groups: dict = {}
        for i in range(1, n + 1):
            groups.setdefault(find(i), []).append(i)
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
    most the column capacity.
    """
    if not all(c == 1 for c in spec.row_caps):
        raise InputError("fixed subcomplex is defined for row caps all 1")
    orbits = H.orbits
    sizes = [len(o) for o in orbits]
    m, t = spec.m, len(orbits)

    def vid(col: int, orb: int) -> int:  # 1-based col, 1-based orbit index
        return (orb - 1) * m + (col - 1)

    admissible = [
        vid(i, j)
        for j in range(1, t + 1)
        for i in range(1, m + 1)
        if sizes[j - 1] <= spec.col_caps[i - 1]
    ]

    col_left = list(spec.col_caps)
    facets = []
    chosen = []

    def maximal() -> bool:
        used_orbits = {v // m for v in chosen}
        for j in range(t):
            if j in used_orbits:
                continue
            if any(col_left[i] >= sizes[j] for i in range(m)):
                return False
        return True

    def rec(orb):
        if orb > t:
            if maximal():
                facets.append(tuple(sorted(chosen)))
            return
        size = sizes[orb - 1]
        for i in range(1, m + 1):
            if col_left[i - 1] >= size:
                col_left[i - 1] -= size
                chosen.append(vid(i, orb))
                rec(orb + 1)
                chosen.pop()
                col_left[i - 1] += size
        rec(orb + 1)

    rec(1)
    return Complex(frozenset(admissible), antichain(facets))


def verify_orientation(spec: ChessboardSpec, tau: dict) -> bool:
    """A fundamental class must have zero simplicial boundary."""
    return chain_boundary(tau) == {}
