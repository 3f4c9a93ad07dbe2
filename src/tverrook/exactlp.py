"""Exact feasibility for Ax = b, x >= 0, on an integer system.

`unique_solution` answers a system whose n columns are independent, by
one fraction-free Gauss-Jordan elimination, with the integer-preserving
steps and per-row scales of the simplex below (here a pivot, and so a
scale, may be negative): step c pivots on column c, in the first row from
the c-th on with a nonzero entry there.  After the
last step, row j < n reads s_j x_j = (its right-hand side), for its scale
s_j, and the rows past the n-th read 0 = (their right-hand side).  Such a
system has at most one solution, so a solution >= 0 is the only feasible
point, and the simplex's point too.

`solve_equality_feasibility` answers any system, by a phase-1 simplex with
Bland's anti-cycling rule on an integer tableau (the integer-preserving
pivots of Edmonds, 1967, and Bareiss, 1968); no floating point anywhere.
It returns a feasible point, as `Fraction`s, or a Farkas vector that proves
there is none, and the number of pivots made.

The caller clears denominators: A and b hold ints, and a rational system
enters as its rows times one positive constant L.  Scaling every row by L
multiplies the phase-1 objective by L and keeps the sign of every reduced
cost and the order of every ratio, so the pivots, and the point returned,
are those of the same method run on the rational system with `Fraction`
cells, whatever L is.

Each row i of the tableau holds s_i times the rational row, for a scale
s_i > 0 of its own: a scale does not change the sign of a reduced cost or
the ratio of a row's right-hand side to its entering entry, so it leaves
every pivot as it is.  D, the last pivot (1 at the start), is the
determinant of the basis, and D times any rational row is integral.  A
pivot brings its row to scale D, and every row with a nonzero entering
entry f becomes (p v - f w) / s_i at scale p, an exact division, where p
is the pivot and w the pivot row at scale D; the pivot row itself is then
the normalized row at scale p.  A row whose entering entry is 0 keeps its
entries and its scale.

Artificial i is the unit column e_i, with reduced cost 0, while it is basic
in row i, so its column joins the tableau only when row i first leaves the
basis: s_i in that row and 0 elsewhere, before the update.  Bland's rule
scans the structural columns, then the artificial columns present, in
index order; an absent one cannot enter.

At the end of an infeasible phase 1, the reduced cost of artificial i is
1 + z'_i, where z'^T A' >= 0 and z'^T b' < 0 on the rows as pivoted (rows
with b_i < 0 negated), by optimality.  So z'_i is read from the cost row at
its scale s as (its entry at artificial i) - s, or -s for a column never
added, and z is z' with the negated rows' entries negated: an integer
vector with z^T A >= 0 and z^T b < 0 (Farkas' lemma; Schrijver, *Theory of
Linear and Integer Programming*, 1986, section 7.3).
"""

from __future__ import annotations

from fractions import Fraction


def unique_solution(A: list, b: list):
    """The solution x >= 0 of Ax = b when A has independent columns, or None.

    A is a list of m rows of n ints and b a list of m ints.  Returns x as a
    list of Fractions when 0 < n <= m, every column gets a pivot, the rows
    past the n-th reduce to 0 = 0 and x >= 0; None otherwise, and then the
    system may still be feasible.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if not 0 < n <= m:
        return None
    T = [[*row, bi] for row, bi in zip(A, b)]
    scale = [1] * m
    d = 1
    for c in range(n):
        k = next((i for i in range(c, m) if T[i][c]), None)
        if k is None:
            return None
        T[c], T[k] = T[k], T[c]
        scale[c], scale[k] = scale[k], scale[c]
        pivot = T[c]
        if scale[c] != d:
            pivot[c:] = [v * d // scale[c] for v in pivot[c:]]
        # columns < c are settled and column c is 0 off the pivot row after this
        # step, so only columns > c are rewritten
        p, w = pivot[c], pivot[c + 1:]
        for i, row in enumerate(T):
            f = row[c]
            if f and i != c:
                row[c + 1:] = [(p * v - f * u) // scale[i] for v, u in zip(row[c + 1:], w)]
                scale[i] = p
        scale[c] = d = p
    if any(row[n] for row in T[n:]) or any(T[j][n] * scale[j] < 0 for j in range(n)):
        return None
    return [Fraction(T[j][n], scale[j]) for j in range(n)]


def solve_equality_feasibility(A: list, b: list):
    """Find x >= 0 with Ax = b, exactly, or a Farkas vector z.

    A is a list of rows of ints and b a list of ints.  Returns (x, z,
    pivots): x a list of Fractions and z None when the system is feasible;
    x None and z a list of ints with z^T A >= 0 and z^T b < 0 when it is
    not; pivots the number of pivots made.
    """
    m = len(A)
    n = len(A[0]) if m else 0

    # Row i is [A_i | b_i | the artificial columns added so far], negated
    # where b_i < 0 so that the artificials start feasible.
    T = [[-v for v in row] + [-bi] if bi < 0 else [*row, bi] for row, bi in zip(A, b)]
    # Phase-1 objective: minimize the sum of artificials.  The reduced-cost
    # row for the artificial basis, with the negated objective value in the
    # b column; it is the last row of the tableau and never the pivot row.
    T.append([-sum(col) for col in zip(*T)] if m else [0])
    scale = [1] * (m + 1)
    basis = list(range(n, n + m))
    column = [None] * m  # column[i]: the column of artificial i, once added
    d = 1
    pivots = 0

    while True:
        cost = T[m]
        entering = next((j for j in range(n) if cost[j] < 0), None)
        if entering is None:
            var = next((n + i for i, j in enumerate(column) if j is not None and cost[j] < 0), None)
            if var is None:
                break
            entering = column[var - n]
        else:
            var = entering
        # Bland: smallest ratio b_i/coeff (compared by cross-multiplying,
        # coefficients are positive), ties broken by smallest basis index.
        leaving = None
        for i in range(m):
            coeff = T[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = T[i][n] * T[leaving][entering]
                rhs = T[leaving][n] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is impossible")
        if column[leaving] is None:  # artificial `leaving` leaves for the first time
            column[leaving] = len(T[m])
            for i, row in enumerate(T):
                row.append(scale[i] if i == leaving else 0)
        pivot_row = T[leaving]
        if scale[leaving] != d:
            pivot_row = [v * d // scale[leaving] for v in pivot_row]
        p = pivot_row[entering]
        for i, row in enumerate(T):
            f = row[entering]
            if f and i != leaving:
                s = scale[i]
                T[i] = [(p * v - f * w) // s for v, w in zip(row, pivot_row)]
                scale[i] = p
        T[leaving] = pivot_row
        scale[leaving] = p
        d = p
        basis[leaving] = var
        pivots += 1

    cost, s = T[m], scale[m]
    if cost[n] != 0:
        z = [-s if j is None else cost[j] - s for j in column]
        return None, [-zi if bi < 0 else zi for zi, bi in zip(z, b)], pivots
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(T[i][n], scale[i])
    return x, None, pivots
