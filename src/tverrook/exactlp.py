"""Exact feasibility for Ax = b, x >= 0, on an integer system.

Both solvers below pivot an integer tableau by `_pivot`, the
integer-preserving step of Edmonds (1967) and Bareiss (1968) with a scale
per row; no floating point anywhere.  Row i of the tableau holds s_i times
its rational row, for a nonzero scale s_i of its own.  D, the last pivot
(1 at the start), is the determinant of the basis, and D times any
rational row is integral.  A pivot on row r and column c brings row r to
scale D, and every other row with a nonzero entry f in column c becomes
(p v - f w) / s_i at scale p, an exact division, where p is the pivot and
w row r at scale D; row r itself is then the normalized row at scale p.
A row whose entry in column c is 0 keeps its entries and its scale.

`unique_solution` answers a system whose n columns are independent, by
one fraction-free Gauss-Jordan elimination of [A | b]: step c pivots on
column c, in the first row from the c-th on with a nonzero entry there; a
pivot, and so a scale, may be negative.  After the last step, row j < n
reads s_j x_j = (its right-hand side), and the rows past the n-th read
0 = (their right-hand side).  Such a system has at most one solution, so
a solution >= 0 is the only feasible point, and the simplex's point too.

`solve_equality_feasibility` answers any system, by a phase-1 simplex with
Bland's anti-cycling rule, whose scales stay positive.  A positive scale
does not change the sign of a reduced cost or the ratio of a row's
right-hand side to its entering entry, so it leaves every pivot as it is.
It returns a feasible point, as `Fraction`s, or a Farkas vector that
proves there is none, and the number of pivots made.

The caller clears denominators: A and b hold ints, and a rational system
enters as its rows times one positive constant L.  Scaling every row by L
multiplies the phase-1 objective by L and keeps the sign of every reduced
cost and the order of every ratio, so the pivots, and the point returned,
are those of the same method run on the rational system with `Fraction`
cells, whatever L is.

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


def _pivot(T: list, scale: list, d: int, r: int, c: int) -> int:
    """Pivot T on row r and column c, as the module docstring says; returns
    the pivot p, the new D.  d is the last pivot, and T[r][c] is nonzero."""
    w = T[r]
    if scale[r] != d:
        T[r] = w = [v * d // scale[r] for v in w]
    p = w[c]
    for i, row in enumerate(T):
        f = row[c]
        if f and i != r:
            s = scale[i]
            T[i] = [(p * v - f * u) // s for v, u in zip(row, w)]
            scale[i] = p
    scale[r] = p
    return p


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
        # the columns before c are settled and dropped, so column c is column 0
        for k in range(c, m):
            if T[k][0]:
                break
        else:
            return None
        T[c], T[k] = T[k], T[c]
        scale[c], scale[k] = scale[k], scale[c]
        d = _pivot(T, scale, d, c, 0)
        for row in T:
            del row[0]
    if any(row[0] for row in T[n:]) or any(T[j][0] * scale[j] < 0 for j in range(n)):
        return None
    return [Fraction(T[j][0], scale[j]) for j in range(n)]


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
        d = _pivot(T, scale, d, leaving, entering)
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
