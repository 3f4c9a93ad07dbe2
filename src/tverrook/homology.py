"""Reduced integral simplicial homology by sparse unit elimination, then
Smith normal form on what is left.

Boundary matrices use the sorted-vertex sign convention and include the
augmentation map to the empty simplex, so all Betti numbers are reduced.
Each boundary map is built as sparse columns ``{row: +-1}``.  Its unit
(+-1) entries are eliminated first, one pivot at a time, choosing the
smallest Markowitz fill (r-1)(c-1) (ties: lowest column, then lowest row);
each elimination is an integer unimodular move that contributes one
invariant factor 1 (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35,
1998).  Most pivots of a chessboard complex's maps cost 0: the unit is alone
on its row or column, so taking it only deletes that row and column.  These
come from a small heap ordered by (column, row), and the Markowitz heap over
(fill, column, row) is built only when none is left, so the pivot order is
the same as with one heap over every unit.  The dense Smith normal form,
least-entry pivots by integer remainders and then a gcd/lcm pass over the
diagonal, runs only on the remainder, which carries all the torsion.
Arbitrary-precision integers throughout.

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

from itertools import combinations
from math import gcd
from typing import NamedTuple

from .errors import InputError
from .simplicial import Complex, faces_by_dimension


def smith_invariants(matrix: list) -> list:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Each round pivots on an entry of least absolute value and reduces the rest
    of its row and column to remainders.  A remainder left is smaller than the
    pivot and the next round's pivot; else |pivot| is recorded and its row and
    column deleted.  Replacing each pair (d_i, d_j), i < j, of that diagonal by
    (gcd, lcm) gives the divisibility chain, as diag(a, b) ~ diag(gcd, lcm)
    (M. Newman, Integral Matrices, 1972).
    """
    A = [row[:] for row in matrix]
    diagonal = []
    while any(map(any, A)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v)
        pivot_row = A[i]
        p = pivot_row[j]
        left = False
        for row in A:
            if row is not pivot_row and row[j]:
                q = row[j] // p
                row[:] = [a - q * b for a, b in zip(row, pivot_row)]
                left = left or row[j] != 0
        for c, v in enumerate(pivot_row):
            if v and c != j:
                q = v // p
                for row in A:
                    row[c] -= q * row[j]
                left = left or pivot_row[c] != 0
        if not left:
            diagonal.append(abs(p))
            del A[i]
            for row in A:
                del row[j]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return diagonal


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
    # combinations(face, q) omits vertex q, q - 1, ..., 0 in turn: the k-th
    # subface has sign (-1)^(q - k)
    first = -1 if q % 2 else 1
    for face in by_dim.get(q, []):
        column = {}
        sign = first
        for subface in combinations(face, q):
            row = index.get(subface)
            if row is not None:
                column[row] = sign
            sign = -sign
        columns.append(column)
    return columns


def eliminate_units(columns: list, n_rows: int):
    """Eliminate +-1 pivots of a sparse integer matrix.

    Returns ``(pivots, remainder, peeled)``: the set of columns eliminated
    as unit pivots, each giving an invariant factor 1, the dense matrix of
    the rows and columns left nonzero, whose Smith invariants are the rest,
    and how many of the pivots had cost 0.  A pivot (i, j) of value u clears
    row i by the column moves ``col_k -= a_ik * u * col_j``; then row i and
    column j are dropped.  The next pivot is the unit entry of least fill
    (r_i - 1)(c_j - 1), ties to the lowest column, then row.  The column
    dicts are updated in place.

    A unit alone on its row or column costs 0 and changes no value: taking
    it only deletes a row and a column (an elementary reduction, Mrozek and
    Batko, Discrete Comput. Geom. 41, 2009).  These come from a heap keyed
    by (column, row), seeded with the units of single-entry lines.  After
    each pivot, only the lines through its row and column change, so one of
    them left with a single unit entry pushes that entry.  A line with one
    entry is never filled, so a unit of cost 0 stays one until it is taken
    or its line is deleted.

    The Markowitz heap for the costly units is built only once no unit of
    cost 0 is left, from the exact costs at that point.  From then on it
    keeps, for every unit entry, an item whose cost is at most the entry's
    current cost: an entry is pushed again when its value changes or a line
    through it shrinks.  A popped item whose entry is gone or no longer a
    unit is dropped; one below the current cost (a line grew) is pushed back
    at that cost; one above it is a duplicate and is dropped.  So the first
    item popped at its entry's current cost is the least, and as the units
    of cost 0 go first, the pivots come in the order of a single heap over
    (cost, column, row).
    """
    from heapq import heapify, heappop, heappush  # here: only homology needs them

    cols = list(columns)  # None once a column is eliminated
    rows = [set() for _ in range(n_rows)]  # row -> columns with an entry there
    for j, column in enumerate(cols):
        for i in column:
            rows[i].add(j)
    free = [
        (j, i)
        for j, column in enumerate(cols)
        for i, v in column.items()
        if (v == 1 or v == -1) and (len(column) == 1 or len(rows[i]) == 1)
    ]
    heapify(free)
    heap = None  # the Markowitz heap, built when `free` first runs dry
    pivots = set()
    peeled = 0
    # each pivot removes a row and a column, so at most this many
    rank_cap = min(n_rows, len(cols))
    while len(pivots) < rank_cap:
        if free:
            j, i = heappop(free)
            pivot_col = cols[j]
            if pivot_col is None or i not in pivot_col:
                continue
            # cost 0: either row i or column j holds only this entry
            peeled += 1
            pivots.add(j)
            cols[j] = None
            del pivot_col[i]
            for r in pivot_col:
                line = rows[r]
                line.discard(j)
                if len(line) == 1:
                    for k in line:
                        if cols[k][r] in (1, -1):
                            heappush(free, (k, r))
            others = rows[i]
            others.discard(j)
            rows[i] = set()
            for k in others:
                target = cols[k]
                del target[i]
                if len(target) == 1:
                    for r, v in target.items():
                        if v == 1 or v == -1:
                            heappush(free, (k, r))
            if heap is not None:
                # every line through row i or column j shrank
                for r in pivot_col:
                    c = len(rows[r]) - 1
                    for k in rows[r]:
                        v = cols[k][r]
                        if v == 1 or v == -1:
                            heappush(heap, (c * (len(cols[k]) - 1), k, r))
                for k in others:
                    target = cols[k]
                    c = len(target) - 1
                    for r, v in target.items():
                        if v == 1 or v == -1:
                            heappush(heap, ((len(rows[r]) - 1) * c, k, r))
            continue
        if heap is None:
            heap = [
                ((len(rows[i]) - 1) * (len(column) - 1), j, i)
                for j, column in enumerate(cols)
                if column
                for i, v in column.items()
                if v == 1 or v == -1
            ]
            heapify(heap)
        if not heap:
            break
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
        # lie on the rows of column j) or lies on a line that shrank, and any
        # line through them left with a single unit entry.
        for k in others:
            target = cols[k]
            c = len(target) - 1
            for r in target if k in shrunk else pivot_col:
                v = target.get(r)
                if v == 1 or v == -1:
                    heappush(heap, ((len(rows[r]) - 1) * c, k, r))
            if not c:
                for r, v in target.items():
                    if v == 1 or v == -1:
                        heappush(free, (k, r))
        for r in pivot_col:
            line = rows[r]
            if len(line) < row_len[r]:
                c = len(line) - 1
                for k in line:
                    v = cols[k][r]
                    if v == 1 or v == -1:
                        heappush(heap, (c * (len(cols[k]) - 1), k, r))
            if len(line) == 1:
                for k in line:
                    if cols[k][r] in (1, -1):
                        heappush(free, (k, r))
    live_rows = {r: a for a, r in enumerate(r for r in range(n_rows) if rows[r])}
    live_cols = [column for column in cols if column]
    remainder = [[0] * len(live_cols) for _ in live_rows]
    for b, column in enumerate(live_cols):
        for r, v in column.items():
            remainder[live_rows[r]][b] = v
    return pivots, remainder, peeled


class HomologyProfile(NamedTuple):
    """Reduced Betti numbers and torsion coefficients per dimension."""

    betti: tuple
    torsion: tuple  # tuple of tuples of invariant factors > 1
    # what elimination did to each boundary map, one row per q:
    # {"q", "rows", "compressed", "cols", "units", "peeled", "remainder": [rows, cols]}
    boundary: tuple = ()

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
        pivots, remainder, peeled = eliminate_units(columns, n_rows - len(cleared))
        inv = smith_invariants(remainder)
        stats = {
            "q": q,
            "rows": n_rows,
            "compressed": len(cleared),
            "cols": len(columns),
            "units": len(pivots),
            "peeled": peeled,
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

    Only d_0, ..., d_{c+1} decide it, so no higher boundary map is built and
    no face above dimension c + 1 is listed.
    Necessary for topological c-connectivity; does not certify pi_1.
    """
    if c < -1:
        raise InputError("connectivity level must be >= -1")
    if K.facets == ((),):
        return False
    top = min(c, K.dimension) + 1
    by_dim = faces_by_dimension(K, top)
    # past the top dimension, d_{dim+1} has no columns
    previous = 0
    for q, (rank, torsion, _) in enumerate(_reduce_boundaries(by_dim, top)):
        # H_{q-1} = Z^(faces - rank d_{q-1} - rank d_q) + the torsion of d_q
        if q and (torsion or len(by_dim[q - 1]) != previous + rank):
            return False
        previous = rank
    return True
