"""Sparse unit elimination against the whole-matrix Smith normal form."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_betti_and_torsion
from tverrook import betti_and_torsion, boundary_matrix, build_complex, join, smith_invariants
from tverrook.homology import eliminate_units

# Minimal 6-vertex triangulation of RP^2: H_1 = Z/2.
RP2 = build_complex(range(6), [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
])
POINT = build_complex({0}, [(0,)])
TWO_POINTS = build_complex({0, 1}, [(0,), (1,)])


def random_complex(draw, vertices):
    n = draw(st.integers(1, vertices))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5),
                           min_size=1, max_size=8))
    return build_complex(range(n), facets)


@st.composite
def complexes(draw):
    """Complexes on at most 8 vertices: random facets, joins, cones and
    suspensions, and RP^2 joined with a complex on at most two vertices."""
    kind = draw(st.sampled_from(["facets", "join", "cone", "suspension", "rp2"]))
    if kind == "facets":
        return random_complex(draw, 8)
    if kind == "join":
        return join(random_complex(draw, 4), random_complex(draw, 4))[0]
    if kind == "cone":
        return join(random_complex(draw, 7), POINT)[0]
    if kind == "suspension":
        return join(random_complex(draw, 6), TWO_POINTS)[0]
    return join(RP2, random_complex(draw, 2))[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(K=complexes())
@example(K=RP2)
def test_profile_matches_dense_oracle(K):
    assert betti_and_torsion(K) == dense_betti_and_torsion(K)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(K=complexes())
@example(K=RP2)
# RP^2 joined with a point and an edge: d_3 leaves a remainder for the dense
# Smith form, and d_4 needs rows of its columns; only unit pivots may go.
@example(K=join(RP2, build_complex(range(3), [(0,), (1, 2)]))[0])
def test_unit_pivot_rows_are_redundant_one_map_up(K):
    # The columns J_q that unit elimination of d_q takes as pivots index
    # q-faces, that is rows of d_{q+1}; deleting those rows keeps every
    # invariant factor of d_{q+1}.  d_q itself is reduced without the rows
    # J_{q-1}, as in betti_and_torsion.
    cleared = set()
    for q in range(K.dimension + 1):
        low = [row for i, row in enumerate(boundary_matrix(K, q)) if i not in cleared]
        columns = [{i: row[j] for i, row in enumerate(low) if row[j]} for j in range(len(low[0]))]
        pivots, _ = eliminate_units(columns, len(low))
        high = boundary_matrix(K, q + 1)
        kept = [row for i, row in enumerate(high) if i not in pivots]
        assert smith_invariants(kept) == smith_invariants(high)
        cleared = pivots


@st.composite
def planted_matrices(draw):
    """Small integer matrices, mostly zero and +-1, with some larger entries."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6])
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(A=planted_matrices())
# An update turns a -1 of this matrix into 2 while the heap still holds an
# item for it whose cost matches: the pivot test must reject that entry.
@example(A=[[0, 2, -1, -1], [-1, -1, 0, -1], [-1, 1, 1, 0], [-1, 0, -1, 1]])
def test_unit_elimination_keeps_invariant_factors(A):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    columns = [{i: A[i][j] for i in range(rows) if A[i][j]} for j in range(cols)]
    pivots, remainder = eliminate_units(columns, rows)
    assert pivots <= set(range(cols))
    assert [1] * len(pivots) + smith_invariants(remainder) == smith_invariants(A)
    # elimination runs until no unit entry is left, and drops zero lines
    assert all(abs(v) != 1 for row in remainder for v in row)
    assert all(any(row) for row in remainder)
    assert all(any(col) for col in zip(*remainder))
