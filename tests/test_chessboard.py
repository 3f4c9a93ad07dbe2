import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import standard_spec
from oracles import (
    act_row_permutation,
    brute_force_facets,
    brute_force_fixed_subcomplex,
    brute_force_subgroup,
    cell_coords,
    chain_boundary,
    link,
    parity,
)
from tverrook import (
    ChessboardSpec,
    InputError,
    ResourceLimitError,
    RowPermutation,
    Subgroup,
    betti_and_torsion,
    build_chessboard,
    build_complex,
    chessboard,
    check_pseudomanifold,
    fixed_subcomplex,
    one_row_spec,
    orient,
    sphere_spec,
    verify_orientation,
)


def subgroup(n, *generators):
    """The `Subgroup` of [n] that the permutation tuples generate."""
    return Subgroup.from_generators(n, [RowPermutation(tuple(g)) for g in generators])


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
            assert cell_coords(spec, v) == (col, row)
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
    assert data["row_caps"] == [1, 1, 1, 1]
    assert ChessboardSpec.from_json(data) == spec


@pytest.mark.parametrize("row_caps", [[2, 1, 1, 1], [True, 1, 1, 1], [1, 1, 1], [1.0, 1, 1, 1],
                                      "1111", None])
def test_spec_json_rows_hold_one_rook(row_caps):
    with pytest.raises(InputError):
        ChessboardSpec.from_json({"m": 2, "n": 4, "row_caps": row_caps, "col_caps": [1, 2]})


def test_bad_spec_rejected():
    with pytest.raises(InputError):
        ChessboardSpec(0, 3, ())
    with pytest.raises(InputError):
        ChessboardSpec(1, 2, (-1,))


@pytest.mark.parametrize(
    "spec",
    [
        standard_spec(2, 3),
        standard_spec(3, 4),
        one_row_spec((1, 2)),
        one_row_spec((2, 2)),
        ChessboardSpec(2, 3, (2, 2)),
        ChessboardSpec(2, 2, (1, 1)),
        one_row_spec((1, 1, 2)),
        one_row_spec((3,)),
        ChessboardSpec(3, 3, (1, 2, 2)),
        ChessboardSpec(3, 2, (2, 1, 1)),
        ChessboardSpec(2, 4, (2, 3)),
        ChessboardSpec(3, 3, (0, 2, 0)),
        ChessboardSpec(3, 2, (3, 0, 1)),
        ChessboardSpec(2, 3, (0, 0)),
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
    K = build_chessboard(ChessboardSpec(2, 2, (1, 1)))
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
        tau = orient(spec, build_chessboard(spec))
        assert set(tau.values()) <= {1, -1}
        assert verify_orientation(tau)
        chain = chain_boundary(tau)
        assert chain == {}


def test_bitmask_boundary_matches_chain_boundary_on_criterion_02_boards():
    # the pseudomanifold-family boards of criterion 02 up to n = 7 (n = 8
    # takes 10 s), their fundamental classes, and each with one sign flipped
    for n in range(2, 8):
        for caps in compositions(n - 1):
            spec = one_row_spec(caps)
            tau = orient(spec, build_chessboard(spec))
            assert verify_orientation(tau) and chain_boundary(tau) == {}
            facet = min(tau)
            flipped = {**tau, facet: -tau[facet]}
            assert not verify_orientation(flipped) and chain_boundary(flipped) != {}


def test_ridge_keys_of_a_deep_board_hash_apart():
    # the 20 100 ridges of one column of cap 200: as bitmasks, sums of 2**v,
    # they take only 1 891 distinct hashes, as CPython hashes modulo 2**61 - 1
    K = build_chessboard(one_row_spec((200,)))
    weights = chessboard._vertex_weights(K.facets)
    keys = {sum(weights[v] for v in facet) - weights[v] for facet in K.facets for v in facet}
    assert len(keys) == 201 * 200 // 2
    assert len({hash(key) for key in keys}) == len(keys)


def test_orient_rejects_off_family_spec():
    spec = ChessboardSpec(2, 2, (1, 1))
    with pytest.raises(InputError):
        orient(spec, build_chessboard(spec))


def test_orient_sphere_is_standard_circle():
    spec = one_row_spec((2,))
    tau = orient(spec, build_chessboard(spec))
    assert len(tau) == 3
    assert chain_boundary(tau) == {}


def test_row_permutation_parity():
    assert parity(RowPermutation((2, 1, 3))) == -1
    assert parity(RowPermutation((2, 3, 1))) == 1
    assert parity(RowPermutation((1, 2, 3, 4))) == 1
    assert parity(RowPermutation((2, 1, 4, 3))) == 1  # (1 2)(3 4)


def test_row_permutation_compose_inverse():
    # (2, 3, 1) after its inverse (3, 1, 2) is the identity, so together they
    # close to the cyclic group of order 3; with (2, 1, 3) they close to S_3
    assert subgroup(3, (2, 3, 1), (3, 1, 2)).order == 3
    assert subgroup(3, (2, 3, 1), (2, 1, 3)).order == 6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 6))
def test_subgroup_matches_a_brute_force_closure(data, n):
    generators = data.draw(st.lists(st.permutations(range(1, n + 1)), max_size=3))
    H = subgroup(n, *generators)
    assert (H.order, H.orbits) == brute_force_subgroup(n, [tuple(g) for g in generators])


def test_action_sign_equals_parity():
    spec = one_row_spec((1, 2))
    K = build_chessboard(spec)
    tau = orient(spec, K)
    for perm in itertools.permutations(range(1, spec.n + 1)):
        g = RowPermutation(perm)
        vertex_map, sign = act_row_permutation(K, spec, g, tau)
        assert sign == parity(g)
        assert set(vertex_map) == set(range(spec.m * spec.n))


def test_action_sign_on_standard_spec():
    spec = standard_spec(3, 4)
    K = build_chessboard(spec)
    tau = orient(spec, K)
    swap = RowPermutation((2, 1, 3, 4))
    _, sign = act_row_permutation(K, spec, swap, tau)
    assert sign == -1
    rot = RowPermutation((2, 3, 1, 4))
    _, sign = act_row_permutation(K, spec, rot, tau)
    assert sign == 1


def test_subgroup_closure_and_orbits():
    H = subgroup(4, (2, 1, 4, 3))
    assert H.order == 2
    assert sorted(tuple(sorted(o)) for o in H.orbits) == [(1, 2), (3, 4)]
    K4 = subgroup(4, (2, 1, 4, 3), (3, 4, 1, 2))
    assert K4.order == 4
    assert [tuple(sorted(o)) for o in K4.orbits] == [(1, 2, 3, 4)]


def test_trivial_subgroup_fixed_complex_is_everything():
    spec = one_row_spec((1, 2))
    K = build_chessboard(spec)
    F = fixed_subcomplex(spec, subgroup(spec.n, tuple(range(1, spec.n + 1))))
    assert sorted(len(f) for f in F.facets) == sorted(len(f) for f in K.facets)
    assert len(F.facets) == len(K.facets)


def test_fixed_complex_two_isolated_vertices():
    spec = one_row_spec((1, 2))
    H = subgroup(4, (2, 1, 4, 3))
    F = fixed_subcomplex(spec, H)
    assert F.dimension == 0
    assert len(F.facets) == 2


def test_fixed_complex_of_simplex_boundary_is_zero_sphere():
    spec = sphere_spec(4)
    H = subgroup(4, (2, 1, 4, 3))
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
        H = subgroup(4, *g)
        cap = fixed_subcomplex(sphere, H).dimension
        for spec in specs:
            assert fixed_subcomplex(spec, H).dimension <= cap


@st.composite
def small_boards(draw):
    """Boards with m * n <= 12 and column capacities 0..3."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12 // m))
    col_caps = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return ChessboardSpec(m, n, tuple(col_caps))


@st.composite
def boards_with_row_subgroups(draw):
    """One-rook-per-row boards with m * n <= 12 and n <= 6, and a subgroup of row
    permutations (two random permutations of more rows mostly generate a
    symmetric group too large to close)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(6, 12 // m)))
    col_caps = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    generators = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=2))
    return one_row_spec(col_caps, n=n), subgroup(n, *generators)


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
