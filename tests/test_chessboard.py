import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_facets, brute_force_fixed_subcomplex
from tverrook import (
    ChessboardSpec,
    InputError,
    ResourceLimitError,
    RowPermutation,
    Subgroup,
    act_row_permutation,
    betti_and_torsion,
    build_chessboard,
    build_complex,
    chain_boundary,
    chessboard,
    check_pseudomanifold,
    fixed_subcomplex,
    link,
    one_row_spec,
    orient,
    sphere_spec,
    standard_spec,
    trivial_subgroup,
    verify_orientation,
)


def compositions(total, parts=None):
    """All positive integer tuples summing to `total` (any length by default)."""
    if parts is not None:
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest
        return
    for k in range(1, total + 1):
        yield from compositions(total, k)


def test_cell_indexing_round_trip():
    spec = standard_spec(3, 4)
    seen = set()
    for col in range(1, 4):
        for row in range(1, 5):
            v = spec.cell(col, row)
            assert spec.cell_coords(v) == (col, row)
            seen.add(v)
    assert seen == set(range(12))


def test_cell_id_formula():
    spec = standard_spec(3, 4)
    assert spec.cell(1, 1) == 0
    assert spec.cell(3, 1) == 2
    assert spec.cell(1, 2) == 3
    assert spec.cell(3, 4) == 11


def test_spec_json_round_trip():
    spec = one_row_spec((1, 2))
    data = spec.to_json()
    assert set(data) == {"m", "n", "row_caps", "col_caps"}
    assert ChessboardSpec.from_json(data) == spec


def test_bad_spec_rejected():
    with pytest.raises(InputError):
        ChessboardSpec(0, 3, (1, 1, 1), ())
    with pytest.raises(InputError):
        ChessboardSpec(1, 2, (1, -1), (1,))


@pytest.mark.parametrize(
    "spec",
    [
        standard_spec(2, 3),
        standard_spec(3, 4),
        one_row_spec((1, 2)),
        one_row_spec((2, 2)),
        ChessboardSpec(2, 3, (1, 2, 1), (2, 2)),
        ChessboardSpec(2, 2, (1, 1), (1, 1)),
        one_row_spec((1, 1, 2)),
        one_row_spec((3,)),
        ChessboardSpec(3, 3, (2, 3, 1), (1, 2, 2)),
        ChessboardSpec(3, 2, (3, 2), (2, 1, 1)),
        ChessboardSpec(2, 4, (2, 0, 2, 1), (2, 3)),
        ChessboardSpec(3, 3, (1, 1, 1), (0, 2, 0)),
        ChessboardSpec(2, 2, (0, 0), (1, 1)),
        ChessboardSpec(2, 3, (1, 1, 1), (0, 0)),
    ],
)
def test_facets_match_brute_force(spec):
    K = build_chessboard(spec)
    assert K.universe == frozenset(range(spec.m * spec.n))
    assert list(K.facets) == brute_force_facets(spec)


def test_facet_cap_counts_facets(monkeypatch):
    monkeypatch.setattr(chessboard, "MAX_FACETS", 24)
    assert len(build_chessboard(standard_spec(3, 4)).facets) == 24
    monkeypatch.setattr(chessboard, "MAX_FACETS", 23)
    with pytest.raises(ResourceLimitError):
        build_chessboard(standard_spec(3, 4))


def test_standard_2_3_is_a_hexagon():
    K = build_chessboard(standard_spec(2, 3))
    assert len(K.vertices) == 6
    assert len(K.facets) == 6
    assert K.dimension == 1
    rep = check_pseudomanifold(K)
    assert rep.pure and rep.ridge_degrees_ok and rep.strongly_connected


def test_one_two_cap_spec_has_twelve_triangles():
    K = build_chessboard(one_row_spec((1, 2)))
    assert len(K.vertices) == 8
    assert len(K.facets) == 12
    assert K.dimension == 2


def test_standard_3_4_has_24_triangles():
    K = build_chessboard(standard_spec(3, 4))
    assert len(K.vertices) == 12
    assert len(K.facets) == 24
    assert K.is_pure()


@pytest.mark.parametrize("col_caps", [c for n in range(2, 7) for c in compositions(n - 1)])
def test_facet_count_formula(col_caps):
    spec = one_row_spec(col_caps)
    K = build_chessboard(spec)
    n = spec.n
    expected = n * math.factorial(n - 1) // math.prod(math.factorial(l) for l in col_caps)
    assert len(K.facets) == expected
    assert K.dimension == n - 2


def test_pseudomanifold_refuted_off_family():
    # n = sum(caps), one short of the pseudomanifold condition.
    K = build_chessboard(ChessboardSpec(2, 2, (1, 1), (1, 1)))
    rep = check_pseudomanifold(K)
    assert not rep.ridge_degrees_ok
    assert rep.offending_faces


def test_pseudomanifold_on_triangle_boundary():
    K = build_complex({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
    rep = check_pseudomanifold(K)
    assert rep.all_ok


def test_vertex_link_spheres():
    # Codimension-drop links: links of vertices of a 2-pseudomanifold are circles.
    K = build_chessboard(one_row_spec((1, 2)))
    for v in K.vertices:
        L = link(K, (v,))
        profile = betti_and_torsion(L)
        assert list(profile.betti) == [0, 1]
        assert all(t == () for t in profile.torsion)


def test_orientation_boundary_zero():
    for caps in [(2,), (1, 2), (1, 1, 1), (2, 2)]:
        spec = one_row_spec(caps)
        tau = orient(spec)
        assert set(tau.values()) <= {1, -1}
        assert verify_orientation(spec, tau)
        chain = chain_boundary(tau)
        assert chain == {}


def test_orient_rejects_off_family_spec():
    with pytest.raises(InputError):
        orient(ChessboardSpec(2, 2, (1, 1), (1, 1)))


def test_orient_sphere_is_standard_circle():
    spec = one_row_spec((2,))
    tau = orient(spec)
    assert len(tau) == 3
    assert chain_boundary(tau) == {}


def test_row_permutation_parity():
    assert RowPermutation((2, 1, 3)).parity == -1
    assert RowPermutation((2, 3, 1)).parity == 1
    assert RowPermutation.identity(4).parity == 1
    assert RowPermutation.from_cycles(4, [(1, 2), (3, 4)]).parity == 1


def test_row_permutation_compose_inverse():
    g = RowPermutation((2, 3, 1))
    assert g.compose(g.inverse()).mapping == RowPermutation.identity(3).mapping


def test_action_sign_equals_parity():
    spec = one_row_spec((1, 2))
    K = build_chessboard(spec)
    tau = orient(spec, K)
    for perm in itertools.permutations(range(1, spec.n + 1)):
        g = RowPermutation(perm)
        vertex_map, sign = act_row_permutation(K, spec, g, tau)
        assert sign == g.parity
        assert set(vertex_map) == set(range(spec.m * spec.n))


def test_action_sign_on_standard_spec():
    spec = standard_spec(3, 4)
    K = build_chessboard(spec)
    tau = orient(spec, K)
    swap = RowPermutation.from_cycles(4, [(1, 2)])
    _, sign = act_row_permutation(K, spec, swap, tau)
    assert sign == -1
    rot = RowPermutation.from_cycles(4, [(1, 2, 3)])
    _, sign = act_row_permutation(K, spec, rot, tau)
    assert sign == 1


def test_subgroup_closure_and_orbits():
    H = Subgroup.from_generators(4, [(2, 1, 4, 3)])
    assert H.order == 2
    assert sorted(tuple(sorted(o)) for o in H.orbits) == [(1, 2), (3, 4)]
    K4 = Subgroup.from_generators(4, [(2, 1, 4, 3), (3, 4, 1, 2)])
    assert K4.order == 4
    assert [tuple(sorted(o)) for o in K4.orbits] == [(1, 2, 3, 4)]


def test_trivial_subgroup_fixed_complex_is_everything():
    spec = one_row_spec((1, 2))
    K = build_chessboard(spec)
    F = fixed_subcomplex(spec, trivial_subgroup(spec.n))
    assert sorted(len(f) for f in F.facets) == sorted(len(f) for f in K.facets)
    assert len(F.facets) == len(K.facets)


def test_fixed_complex_two_isolated_vertices():
    spec = one_row_spec((1, 2))
    H = Subgroup.from_generators(4, [(2, 1, 4, 3)])
    F = fixed_subcomplex(spec, H)
    assert F.dimension == 0
    assert len(F.facets) == 2


def test_fixed_complex_of_simplex_boundary_is_zero_sphere():
    spec = sphere_spec(4)
    H = Subgroup.from_generators(4, [(2, 1, 4, 3)])
    F = fixed_subcomplex(spec, H)
    assert F.dimension == 0
    assert len(F.facets) == 2
    profile = betti_and_torsion(F)
    assert list(profile.betti) == [1]


def test_fixed_complex_dimension_inequality():
    specs = [one_row_spec((1, 2), n=4), one_row_spec((1, 1, 1), n=4)]
    sphere = sphere_spec(4)
    gens = [
        [(2, 1, 4, 3)],
        [(2, 1, 4, 3), (3, 4, 1, 2)],
        [(2, 3, 4, 1)],
        [(1, 2, 4, 3)],
    ]
    for g in gens:
        H = Subgroup.from_generators(4, g)
        cap = fixed_subcomplex(sphere, H).dimension
        for spec in specs:
            assert fixed_subcomplex(spec, H).dimension <= cap


@st.composite
def small_boards(draw):
    """Boards with m * n <= 12 and capacities 0..3."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12 // m))
    caps = st.integers(0, 3)
    row_caps = draw(st.lists(caps, min_size=n, max_size=n))
    col_caps = draw(st.lists(caps, min_size=m, max_size=m))
    return ChessboardSpec(m, n, tuple(row_caps), tuple(col_caps))


@st.composite
def boards_with_row_subgroups(draw):
    """One-rook-per-row boards with m * n <= 12 and n <= 6, and a subgroup of row
    permutations (two random permutations of more rows mostly generate a
    symmetric group too large to close)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(6, 12 // m)))
    col_caps = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    generators = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=2))
    return one_row_spec(col_caps, n=n), Subgroup.from_generators(n, generators)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=small_boards())
def test_random_board_facets_match_brute_force(spec):
    assert list(build_chessboard(spec).facets) == brute_force_facets(spec)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=boards_with_row_subgroups())
def test_random_fixed_subcomplex_matches_brute_force(case):
    spec, H = case
    F = fixed_subcomplex(spec, H)
    universe, facets = brute_force_fixed_subcomplex(spec, H.orbits)
    assert F.universe == universe
    assert list(F.facets) == facets
