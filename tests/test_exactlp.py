import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_equality_feasibility
from tverrook.exactlp import solve_equality_feasibility

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def systems(draw):
    """Small rational systems Ax = b, half of them with a planted x >= 0.

    Extra rows repeat, combine or contradict the drawn ones, so systems
    have redundant and inconsistent rows, zero right-hand sides, negative
    right-hand sides and ties in the ratio test.
    """
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5)) if m else 0
    A = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)]),
                          min_size=n, max_size=n))
        b = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]
    else:
        b = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(["repeat", "sum", "contradict", "negate"]))
        if kind == "repeat":
            A.append(list(A[i]))
            b.append(b[i])
        elif kind == "sum":
            A.append([u + v for u, v in zip(A[i], A[j])])
            b.append(b[i] + b[j])
        elif kind == "contradict":
            A.append(list(A[i]))
            b.append(b[i] + 1)
        else:
            A.append([-v for v in A[i]])
            b.append(-b[i])
    return A, b


def cleared(A, b, factor=1):
    """The rational system Ax = b times factor * (the lcm of its denominators), as ints."""
    L = factor * math.lcm(*(v.denominator for row in A for v in row), *(v.denominator for v in b))
    return [[int(v * L) for v in row] for row in A], [int(v * L) for v in b]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(system=systems(), factor=st.integers(1, 3))
def test_integer_tableau_matches_fraction_oracle(system, factor):
    # any positive multiple of the cleared system must give the same point
    A, b = system
    x = solve_equality_feasibility(*cleared(A, b, factor))
    assert x == fraction_equality_feasibility(A, b)
    if x is not None:
        n = len(A[0]) if A else 0
        assert len(x) == n
        assert all(type(v) is Fraction and v >= 0 for v in x)
        assert all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == bi
                   for row, bi in zip(A, b))


def test_degenerate_ties_follow_blands_rule():
    # Every ratio ties at 0 on the first pivot; both solvers must pick the
    # same leaving row and end at the same vertex.
    A = [[Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)],
         [Fraction(2), Fraction(1), Fraction(1)]]
    b = [Fraction(0), Fraction(0), Fraction(0)]
    assert solve_equality_feasibility(*cleared(A, b)) == fraction_equality_feasibility(A, b) == [0, 0, 0]
    b = [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]
    x = solve_equality_feasibility(*cleared(A, b))
    assert x == fraction_equality_feasibility(A, b)
    assert x is not None and x[0] + x[1] == Fraction(1, 3)
