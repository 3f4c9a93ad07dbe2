"""Reduced integral simplicial homology by sparse unit elimination, then
Smith normal form on what is left.

Boundary matrices use the sorted-vertex sign convention and include the
augmentation map to the empty simplex, so all Betti numbers are reduced.
Each boundary map is built as sparse columns ``{row: +-1}``.  Its unit
(+-1) entries are eliminated first, one pivot at a time, choosing the
smallest Markowitz fill (r-1)(c-1) (ties: lowest column, then lowest row);
each elimination is an integer unimodular move that contributes one
invariant factor 1 (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35,
1998).  The dense Smith normal form, exact integer elimination with minimal
absolute-value pivoting, then runs only on the remainder, which carries all
the torsion.  Arbitrary-precision integers throughout.

The maps are reduced upward, d_0 first, and each is compressed by the one
below it (Bauer, Kerber and Reininghaus, "Clear and compress", 2014): the
q-faces that d_q took as unit pivots J_q index rows of d_{q+1}, and those
rows are never built.  This is sound over the integers.  The pivot rows of
d_q, read as coboundaries, have a +-1 at their own pivot column and 0 at
every earlier one, so they make a unimodular triangular change of basis of
the q-cochains; as d_q d_{q+1} = 0 it turns rows J_q of d_{q+1} into zero
and leaves the other rows as they are.  The columns of the dense remainder
keep their rows, because a pivot other than +-1 gives no unimodular change.
Connectivity through dimension c reads only d_0, ..., d_{c+1}, and stops
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .simplicial import Complex, faces_by_dimension


def smith_invariants(matrix: list) -> list:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    A = [row[:] for row in matrix]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    invariants = []
    t = 0
    while True:
        # locate a nonzero pivot of minimal absolute value in the submatrix
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = A[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]

        # clear the pivot row and column by remainders
        dirty = True
        while dirty:
            dirty = False
            p = A[t][t]
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // p
                    for j in range(t, cols):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // p
                    for i in range(t, rows):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for i in range(rows):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the remaining submatrix
            p = A[t][t]
            for i in range(t + 1, rows):
                bad = next((j for j in range(t + 1, cols) if A[i][j] % p), None)
                if bad is not None:
                    for j in range(t, cols):
                        A[t][j] += A[i][j]
                    dirty = True
                    break
        invariants.append(abs(A[t][t]))
        t += 1
        if t == rows or t == cols:
            break
    return invariants


def _boundary_columns(by_dim: dict, q: int, cleared=frozenset()) -> list:
    """Sparse columns of the boundary map from q-faces to (q-1)-faces.

    Column j is ``{i: +-1}`` over the (q-1)-faces i of the j-th q-face, both
    indexed in the sorted order of ``faces_by_dimension``.  The rows of the
    (q-1)-faces whose indices are in ``cleared`` are left out, and the
    other rows are numbered in order.
    """
    kept = (face for i, face in enumerate(by_dim.get(q - 1, [])) if i not in cleared)
    index = {face: i for i, face in enumerate(kept)}
    columns = []
    for face in by_dim.get(q, []):
        column = {}
        for idx in range(len(face)):
            row = index.get(face[:idx] + face[idx + 1:])
            if row is not None:
                column[row] = -1 if idx % 2 else 1
        columns.append(column)
    return columns


def boundary_matrix(K: Complex, q: int) -> list:
    """Dense matrix of the boundary map from q-faces to (q-1)-faces.

    For q = 0 this is the augmentation map onto the empty simplex.
    """
    by_dim = faces_by_dimension(K)
    columns = _boundary_columns(by_dim, q)
    matrix = [[0] * len(columns) for _ in by_dim.get(q - 1, [])]
    for col, column in enumerate(columns):
        for row, value in column.items():
            matrix[row][col] = value
    return matrix


def eliminate_units(columns: list, n_rows: int):
    """Eliminate +-1 pivots of a sparse integer matrix.

    Returns ``(pivots, remainder)``: the set of columns eliminated as unit
    pivots, each giving an invariant factor 1, and the dense matrix of the
    rows and columns left nonzero, whose Smith invariants are the rest.  A
    pivot (i, j) of value u clears row i by the column moves
    ``col_k -= a_ik * u * col_j``; then row i and column j are dropped.  The
    next pivot is the unit entry of least fill (r_i - 1)(c_j - 1), ties to
    the lowest column, then row.  The column dicts are updated in place.

    The heap keeps, for every unit entry, an item whose cost is at most the
    entry's current cost: an entry is pushed again when its value changes or
    a line through it shrinks.  A popped item whose entry is gone or no
    longer a unit is dropped; one below the current cost (a line grew) is
    pushed back at that cost; one above it is a duplicate and is dropped.
    So the first item popped at its entry's current cost is the least.
    """
    from heapq import heapify, heappop, heappush  # here: only homology needs them

    cols = list(columns)  # None once a column is eliminated
    rows = [set() for _ in range(n_rows)]  # row -> columns with an entry there
    for j, column in enumerate(cols):
        for i in column:
            rows[i].add(j)
    heap = [
        ((len(rows[i]) - 1) * (len(column) - 1), j, i)
        for j, column in enumerate(cols)
        for i, v in column.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    pivots = set()
    # each pivot removes a row and a column, so at most this many
    rank_cap = min(n_rows, len(cols))
    while heap and len(pivots) < rank_cap:
        cost, j, i = heappop(heap)
        pivot_col = cols[j]
        if pivot_col is None or pivot_col.get(i) not in (1, -1):
            continue
        now = (len(rows[i]) - 1) * (len(pivot_col) - 1)
        if now != cost:
            if now > cost:
                heappush(heap, (now, j, i))
            continue
        pivots.add(j)
        cols[j] = None
        u = pivot_col.pop(i)
        row_len = {}
        for r in pivot_col:
            row_len[r] = len(rows[r])
            rows[r].discard(j)
        others = rows[i]
        others.discard(j)
        rows[i] = set()
        shrunk = set()
        for k in others:
            target = cols[k]
            col_len = len(target)
            factor = target.pop(i) * u
            for r, v in pivot_col.items():
                new = target.get(r, 0) - factor * v
                if not new:
                    del target[r]
                    rows[r].discard(k)
                else:
                    if r not in target:
                        rows[r].add(k)
                    target[r] = new
            if len(target) < col_len:
                shrunk.add(k)
        # Push the final cost of every unit entry that changed in value (they
        # lie on the rows of column j) or lies on a line that shrank.
        for k in others:
            target = cols[k]
            c = len(target) - 1
            for r in target if k in shrunk else pivot_col:
                v = target.get(r)
                if v == 1 or v == -1:
                    heappush(heap, ((len(rows[r]) - 1) * c, k, r))
        for r in pivot_col:
            if len(rows[r]) < row_len[r]:
                c = len(rows[r]) - 1
                for k in rows[r]:
                    v = cols[k][r]
                    if v == 1 or v == -1:
                        heappush(heap, (c * (len(cols[k]) - 1), k, r))
    live_rows = {r: a for a, r in enumerate(r for r in range(n_rows) if rows[r])}
    live_cols = [column for column in cols if column]
    remainder = [[0] * len(live_cols) for _ in live_rows]
    for b, column in enumerate(live_cols):
        for r, v in column.items():
            remainder[live_rows[r]][b] = v
    return pivots, remainder


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per dimension."""

    betti: tuple
    torsion: tuple  # tuple of tuples of invariant factors > 1
    reduced: bool = True
    # what elimination did to each boundary map, one row per q:
    # {"q", "rows", "compressed", "cols", "units", "remainder": [rows, cols]}
    boundary: tuple = field(default=(), compare=False)

    def betti_number(self, q: int) -> int:
        return self.betti[q] if 0 <= q < len(self.betti) else 0

    def torsion_in(self, q: int) -> tuple:
        return self.torsion[q] if 0 <= q < len(self.torsion) else ()

    def to_json(self) -> list:
        return [
            {"q": q, "betti": b, "torsion": list(t)}
            for q, (b, t) in enumerate(zip(self.betti, self.torsion))
        ]


def _reduce_boundaries(by_dim: dict, top: int):
    """Reduce the boundary maps d_0, ..., d_top in this order.

    Yields ``(rank, torsion, stats)`` for each: the rank of d_q, its
    invariant factors > 1, and its row of ``HomologyProfile.boundary``.
    d_q is built without the rows of the (q-1)-faces that d_{q-1} took as
    unit pivots (its ``compressed`` count).
    """
    cleared = set()
    for q in range(top + 1):
        n_rows = len(by_dim.get(q - 1, []))
        columns = _boundary_columns(by_dim, q, cleared)
        pivots, remainder = eliminate_units(columns, n_rows - len(cleared))
        inv = smith_invariants(remainder)
        stats = {
            "q": q,
            "rows": n_rows,
            "compressed": len(cleared),
            "cols": len(columns),
            "units": len(pivots),
            "remainder": [len(remainder), len(remainder[0]) if remainder else 0],
        }
        yield len(pivots) + len(inv), tuple(d for d in inv if d > 1), stats
        cleared = pivots


def betti_and_torsion(K: Complex) -> HomologyProfile:
    """Reduced integral homology of K in every dimension."""
    if K.facets == ((),):
        raise InputError("homology requires a nonempty complex")
    by_dim = faces_by_dimension(K)
    dim = K.dimension
    ranks, torsion, boundary = zip(*_reduce_boundaries(by_dim, dim))
    ranks += (0,)
    betti = tuple(len(by_dim[q]) - ranks[q] - ranks[q + 1] for q in range(dim + 1))
    return HomologyProfile(betti, torsion[1:] + ((),), boundary=boundary)


def homological_connectivity(K: Complex, c: int) -> bool:
    """True iff reduced homology (rank and torsion) vanishes in dimensions <= c.

    Only d_0, ..., d_{c+1} decide it, so no higher boundary map is built.
    Necessary for topological c-connectivity; does not certify pi_1.
    """
    if c < -1:
        raise InputError("connectivity level must be >= -1")
    if K.facets == ((),):
        return False
    by_dim = faces_by_dimension(K)
    # past the top dimension, d_{dim+1} has no columns
    previous = 0
    for q, (rank, torsion, _) in enumerate(_reduce_boundaries(by_dim, min(c, K.dimension) + 1)):
        # H_{q-1} = Z^(faces - rank d_{q-1} - rank d_q) + the torsion of d_q
        if q and (torsion or len(by_dim[q - 1]) != previous + rank):
            return False
        previous = rank
    return True
