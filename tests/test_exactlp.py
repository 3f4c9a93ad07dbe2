import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fraction_equality_feasibility
from tverrook import build_example_a, geometry, search_tverberg
from tverrook.exactlp import _pivot, solve_equality_feasibility, unique_solution

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
    # after the same pivots
    A, b = system
    x, _, pivots = solve_equality_feasibility(*cleared(A, b, factor))
    want, _, want_pivots = fraction_equality_feasibility(A, b)
    assert (x, pivots) == (want, want_pivots)
    if x is not None:
        n = len(A[0]) if A else 0
        assert len(x) == n
        assert all(type(v) is Fraction and v >= 0 for v in x)
        assert all(sum((a * v for a, v in zip(row, x)), Fraction(0)) == bi
                   for row, bi in zip(A, b))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_pivot_keeps_each_row_its_scale_times_the_fraction_row(data):
    # Random pivots on nonzero entries of an integer tableau, negative ones
    # included as in the elimination, replayed on the rational rows.
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    T = [data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    scale = [1] * m
    R = [list(map(Fraction, row)) for row in T]
    d = 1
    for _ in range(data.draw(st.integers(1, 8))):
        nonzero = [(i, j) for i in range(m) for j in range(n) if T[i][j]]
        if not nonzero:
            break
        r, c = data.draw(st.sampled_from(nonzero))
        before = [(list(row), s) for row, s in zip(T, scale)]
        d = _pivot(T, scale, d, r, c)
        R[r] = [v / R[r][c] for v in R[r]]
        R = [row if i == r else [v - row[c] * u for v, u in zip(row, R[r])] for i, row in enumerate(R)]
        assert d == scale[r] != 0
        for i, (row, s) in enumerate(before):
            # a floor division that dropped a remainder would differ from the
            # Fraction row here, so every division was exact
            assert all(type(v) is int for v in T[i]) and T[i] == [scale[i] * v for v in R[i]]
            # which is what makes the next pivot's divisions exact
            assert all((d * v).denominator == 1 for v in R[i])
            if i != r and row[c] == 0:
                assert (T[i], scale[i]) == (row, s)


def test_degenerate_ties_follow_blands_rule():
    # Every ratio ties at 0 on the first pivot; both solvers must pick the
    # same leaving row and end at the same vertex.
    A = [[Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)],
         [Fraction(2), Fraction(1), Fraction(1)]]
    b = [Fraction(0), Fraction(0), Fraction(0)]
    assert solve_equality_feasibility(*cleared(A, b))[0] == fraction_equality_feasibility(A, b)[0] == [0, 0, 0]
    b = [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]
    x, _, _ = solve_equality_feasibility(*cleared(A, b))
    assert x == fraction_equality_feasibility(A, b)[0]
    assert x is not None and x[0] + x[1] == Fraction(1, 3)


def is_farkas(A, b, z):
    """Whether z^T A >= 0 on every column and z^T b < 0, in integers."""
    n = len(A[0]) if A else 0
    return (
        all(type(zi) is int for zi in z)
        and all(sum(zi * row[j] for zi, row in zip(z, A)) >= 0 for j in range(n))
        and sum(zi * bi for zi, bi in zip(z, b)) < 0
    )


def primitive(z):
    g = math.gcd(*z)
    return [v // g for v in z]


def test_infeasible_systems_get_a_farkas_vector():
    negated = []  # per infeasible system, whether the check fails each negated entry

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(system=systems(), factor=st.integers(1, 3))
    def check(system, factor):
        A, b = cleared(*system, factor)
        x, z, _ = solve_equality_feasibility(A, b)
        assert (x is None) != (z is None)
        if z is None:
            return
        assert len(z) == len(A) and is_farkas(A, b, z)
        # the Fraction tableau's vector is a positive multiple of the same one
        assert primitive(z) == primitive(fraction_equality_feasibility(A, b)[1])
        negated.append([not is_farkas(A, b, z[:i] + [-zi] + z[i + 1:]) for i, zi in enumerate(z) if zi])

    check()
    # A negated entry can leave a Farkas vector (a zero row, say), but on
    # the drawn corpus the check fails most of them, on most systems.
    caught = [sum(entries) for entries in negated]
    assert len(negated) > 200
    assert 2 * sum(caught) > sum(map(len, negated))
    assert 4 * sum(map(bool, caught)) > 3 * len(negated)


def test_farkas_vector_of_a_negated_row():
    # x = 1 and x = -1: the second row is negated before the pivots, and
    # the vector is read back in the signs of the rows given
    A, b = [[1], [1]], [1, -1]
    x, z, pivots = solve_equality_feasibility(A, b)
    assert (x, pivots) == (None, 0)
    assert is_farkas(A, b, z) and primitive(z) == [-1, 1]


def test_hull_systems_of_example_a_match_the_fraction_oracle():
    # Every hull system that the searches of Example A (p^k = 4 in the
    # plane, epsilon 1/100, seeds 0..11) solve: one feasible 10 x 10 system
    # each, which the elimination answers.  The simplex still runs on them
    # here: its tableau entries reach 143 bits.
    systems = []

    def spy(A, b):
        x = unique_solution(A, b)
        systems.append((A, b, x))
        return x

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "unique_solution", spy)
        for seed in range(12):
            _, instance = build_example_a(2, 2, 2, epsilon=Fraction(1, 100), seed=seed)
            assert search_tverberg(instance)[1]["lp_direct"] == 1
    assert len(systems) == 12
    for A, b, direct in systems:
        x, _, pivots = solve_equality_feasibility(A, b)
        want, _, want_pivots = fraction_equality_feasibility(A, b)
        assert direct is not None and direct == x == want and pivots == want_pivots


@st.composite
def tall_systems(draw):
    """Rational systems of n <= m columns, mostly independent, with a planted
    solution x >= 0; in half of them, x has a negative entry or one
    right-hand side is moved off Ax."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 6))
    A = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
    x = draw(st.lists(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]),
                      min_size=n, max_size=n))
    change = draw(st.sampled_from(["none", "none", "negative", "moved"]))
    if change == "negative":
        x[draw(st.integers(0, n - 1))] = Fraction(-1)
    b = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]
    if change == "moved":
        b[draw(st.integers(0, m - 1))] += 1
    return A, b


def rank(A):
    """The rank of a rational matrix, by Gaussian elimination on Fractions."""
    rows = [list(map(Fraction, row)) for row in A]
    done = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[done], rows[k] = rows[k], rows[done]
        for i in range(done + 1, len(rows)):
            f = rows[i][c] / rows[done][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[done])]
        done += 1
    return done


def test_unique_solution_is_the_simplex_point():
    answered = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(system=st.one_of(systems(), tall_systems()), factor=st.integers(1, 3))
    def check(system, factor):
        A, b = system
        rows, rhs = cleared(A, b, factor)
        x = unique_solution(rows, rhs)
        want = fraction_equality_feasibility(A, b)[0]
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert x == want == solve_equality_feasibility(rows, rhs)[0]
            answered.append(x)
        elif want is not None:
            # a feasible system it leaves has no columns or dependent ones
            n = len(A[0]) if A else 0
            assert n == 0 or rank(A) < n

    check()
    assert len(answered) > 150


@pytest.mark.parametrize(
    "A, b, feasible",
    [
        ([[1, 0], [2, 0], [0, 0]], [1, 2, 0], True),  # a zero column
        ([[1, 2], [1, 2]], [3, 3], True),  # two dependent columns
        ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], False),  # an extra row contradicts the others
        ([[1, 0], [0, 1]], [1, -1], False),  # the one solution has a negative entry
        ([[1, 1, 1]], [1], True),  # more columns than rows
    ],
    ids=["zero-column", "dependent-columns", "contradicting-row", "negative-entry", "wide"],
)
def test_unique_solution_leaves_systems_to_the_simplex(A, b, feasible):
    assert unique_solution(A, b) is None
    assert (solve_equality_feasibility(A, b)[0] is not None) == feasible


@pytest.mark.parametrize(
    "A, b, x",
    [
        ([[0, 1], [1, 0]], [2, 3], [3, 2]),  # the first pivot needs a row swap
        ([[0, 1], [1, 0], [1, 1]], [2, 3, 5], [3, 2]),  # a swap, and an extra row that agrees
        ([[-2, 1], [1, 1]], [-1, 2], [1, 1]),  # negative pivots: D = -3 at the end
        ([[0, 0, 2], [3, 0, 0], [0, -1, 1], [1, 1, 1]], [4, 3, 1, 4], [1, 1, 2]),  # two swaps
        ([[2, 0], [0, 3]], [1, 1], [Fraction(1, 2), Fraction(1, 3)]),
        # step 0 rewrites row 1 at scale -2 and leaves row 2 at scale 1;
        # step 1 swaps them, and their scales with them
        ([[-2, 0, 0, -1], [-1, 0, 1, 0], [0, 1, 0, -1], [3, 1, 0, 0]], [-2, 1, 0, 2], [0, 2, 1, 2]),
    ],
    ids=["row-swap", "row-swap-and-extra-row", "negative-pivots", "two-swaps", "fractions",
         "swap-of-rows-at-two-scales"],
)
def test_unique_solution_with_row_swaps_and_negative_pivots(A, b, x):
    got = unique_solution(A, b)
    assert got == x == solve_equality_feasibility(A, b)[0]
    assert all(type(v) is Fraction for v in got)
