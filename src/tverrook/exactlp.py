"""Exact feasibility for Ax = b, x >= 0, on an integer system.

Phase-1 simplex with Bland's anti-cycling rule on an integer tableau over
one common denominator (the integer-preserving pivots of Edmonds, 1967, and
Bareiss, 1968); no floating point anywhere.  Returns a feasible point, as
`Fraction`s, or None.

The caller clears denominators: A and b hold ints, and a rational system
enters as its rows times one positive constant L.  Scaling every row by L
multiplies the phase-1 objective by L and keeps the sign of every reduced
cost and the order of every ratio, so the pivots, and the point returned,
are those of the same method run on the rational system with `Fraction`
cells, whatever L is.  The tableau holds d times the rational tableau
of the integer system, where d is the last pivot (1 at the start); each
pivot's update divides exactly by the previous d.
"""

from __future__ import annotations

from fractions import Fraction


def solve_equality_feasibility(A: list, b: list):
    """Find x >= 0 with Ax = b, exactly, or return None.

    A is a list of rows of ints and b a list of ints.  The result is a
    list of Fractions.
    """
    m = len(A)
    n = len(A[0]) if m else 0

    # Row i is [A_i | e_i | b_i], negated where b_i < 0 so the artificials
    # (columns n..n+m-1, the starting basis) start feasible.
    T = []
    for i, (row, bi) in enumerate(zip(A, b)):
        unit = [0] * m
        unit[i] = 1
        T.append([-v for v in row] + unit + [-bi] if bi < 0 else [*row, *unit, bi])
    basis = list(range(n, n + m))

    # Phase-1 objective: minimize the sum of artificials.  Reduced-cost row
    # for the artificial basis, with the negated objective value last; it is
    # the last row of the tableau and is never the pivot row.
    cost = [-sum(col) for col in zip(*T)] if m else [0]
    for j in range(n, n + m):
        cost[j] += 1
    T.append(cost)
    d = 1

    while True:
        entering = next((j for j in range(n + m) if T[m][j] < 0), None)
        if entering is None:
            break
        # Bland: smallest ratio rhs/coeff (compared by cross-multiplying,
        # coefficients are positive), ties broken by smallest basis index.
        leaving = None
        for i in range(m):
            coeff = T[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = T[i][-1] * T[leaving][entering]
                rhs = T[leaving][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is impossible")
        pivot_row = T[leaving]
        p = pivot_row[entering]
        for i, row in enumerate(T):
            if i == leaving:
                continue
            f = row[entering]
            if f:
                T[i] = [(p * v - f * w) // d for v, w in zip(row, pivot_row)]
            elif p != d:
                T[i] = [p * v // d for v in row]
        d = p
        basis[leaving] = entering

    if T[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(T[i][-1], d)
    return x
