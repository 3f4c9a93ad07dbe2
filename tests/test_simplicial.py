import itertools

import pytest

from oracles import chain_boundary, euler_characteristic, is_face, join, link, skeleton
from tverrook import (
    Complex,
    InputError,
    ResourceLimitError,
    antichain,
    build_chessboard,
    build_complex,
    faces_by_dimension,
    one_row_spec,
    simplicial,
)


def face_counts(K):
    return {q: len(fs) for q, fs in faces_by_dimension(K).items()}


def triangle_boundary():
    return build_complex({1, 2, 3}, [(1, 2), (2, 3), (1, 3)])


def two_points():
    return build_complex({1, 2}, [(1,), (2,)])


def test_antichain_drops_dominated_faces():
    assert antichain([(1,), (1, 2), (2, 3)]) == ((1, 2), (2, 3))


def test_antichain_deduplicates():
    assert antichain([(1, 2), (1, 2), (3,)]) == ((1, 2), (3,))


def test_antichain_of_nothing_is_the_empty_simplex():
    assert antichain([]) == ((),)
    assert antichain([(), ()]) == ((),)


def test_build_complex_normalizes_vertex_order():
    K = build_complex({1, 2, 3}, [(3, 1, 2)])
    assert K.facets == ((1, 2, 3),)
    assert K.dimension == 2


def test_is_face_includes_empty_simplex():
    K = triangle_boundary()
    assert is_face(K, ())
    assert is_face(K, (2,))
    assert is_face(K, (1, 3))
    assert not is_face(K, (1, 2, 3))


def test_faces_by_dimension_counts_triangle_boundary():
    K = triangle_boundary()
    by_dim = faces_by_dimension(K)
    assert sorted(by_dim) == [-1, 0, 1]
    assert len(by_dim[0]) == 3
    assert len(by_dim[1]) == 3
    assert face_counts(K) == {-1: 1, 0: 3, 1: 3}


def test_faces_by_dimension_returns_a_fresh_dict():
    K = triangle_boundary()
    by_dim = faces_by_dimension(K)
    by_dim[0].append((4,))
    del by_dim[1]
    assert face_counts(K) == {-1: 1, 0: 3, 1: 3}


def test_euler_characteristic_circle():
    K = triangle_boundary()
    assert euler_characteristic(K) == 0
    assert euler_characteristic(K, reduced=True) == -1
    assert type(euler_characteristic(K, reduced=True)) is int


def test_link_of_vertex_in_triangle_boundary():
    K = triangle_boundary()
    L = link(K, (2,))
    assert L.facets == ((1,), (3,))


def test_link_of_nonface_rejected():
    with pytest.raises(InputError):
        link(triangle_boundary(), (1, 2, 3))


def test_join_relabels_second_factor():
    J, relabel = join(two_points(), two_points())
    assert set(relabel.values()).isdisjoint({1, 2})
    # S^0 * S^0 = 4-cycle: four edges.
    assert len(J.facets) == 4
    assert J.dimension == 1


def test_join_face_counts_multiply():
    K1 = triangle_boundary()
    K2 = two_points()
    J, _ = join(K1, K2)
    c1, c2, cj = face_counts(K1), face_counts(K2), face_counts(J)
    for q in range(-1, J.dimension + 1):
        expected = sum(c1.get(a, 0) * c2.get(q - 1 - a, 0) for a in range(-1, q + 1))
        assert cj.get(q, 0) == expected


def test_triple_join_of_spheres():
    J = join(join(two_points(), two_points())[0], two_points())[0]
    # S^0 * S^0 * S^0 = octahedron boundary: 8 triangles, Euler 2.
    assert len(J.facets) == 8
    assert euler_characteristic(J) == 2


def test_skeleton_truncates_dimension():
    K = build_complex({1, 2, 3}, [(1, 2, 3)])
    S = skeleton(K, 1)
    assert S.dimension == 1
    assert len(S.facets) == 3


def test_chain_boundary_of_boundary_vanishes():
    first = chain_boundary({(1, 2, 3, 4): 1})
    assert chain_boundary(first) == {}


def test_chain_boundary_signs_alternate():
    out = chain_boundary({(1, 2, 3): 1})
    assert out == {(2, 3): 1, (1, 3): -1, (1, 2): 1}


def test_json_round_trip():
    K = triangle_boundary()
    data = K.to_json()
    assert set(data) == {"universe", "facets"}
    assert Complex.from_json(data) == K


def test_build_is_idempotent():
    K = triangle_boundary()
    assert build_complex(K.universe, K.facets) == K


def test_universe_may_exceed_support():
    K = build_complex({1, 2, 7}, [(1, 2)])
    assert 7 in K.universe
    assert K.vertices == (1, 2)


def test_facet_outside_universe_rejected():
    with pytest.raises(InputError):
        build_complex({1, 2}, [(1, 9)])


def test_all_subsets_of_facets_are_faces():
    K = build_complex({1, 2, 3, 4}, [(1, 2, 3), (3, 4)])
    for facet in K.facets:
        for size in range(len(facet) + 1):
            for sub in itertools.combinations(facet, size):
                assert is_face(K, sub)


@pytest.mark.parametrize(
    "cols, rows, faces, entries",
    [((1,) * 7, 7, 645_120, 2_257_920), ((2, 2, 2, 2), 9, 5_806_080, 23_224_320)],
    ids=["M(7,7)", "(2,2,2,2)-on-9-rows"],
)
def test_face_listing_cap_admits_the_large_boards(monkeypatch, cols, rows, faces, entries):
    """Both caps admit both boards; either cap one below its count refuses them unlisted."""
    assert 2**23 <= simplicial.MAX_LISTED_FACES < 2**24
    assert 23_224_320 <= simplicial.MAX_BOUNDARY_ENTRIES < 22 * 2**21
    assert faces <= simplicial.MAX_LISTED_FACES and entries <= simplicial.MAX_BOUNDARY_ENTRIES
    K = build_chessboard(one_row_spec(cols, n=rows))
    for cap, count in (("MAX_LISTED_FACES", faces), ("MAX_BOUNDARY_ENTRIES", entries)):
        with monkeypatch.context() as patch:
            patch.setattr(simplicial, cap, count - 1)
            with pytest.raises(ResourceLimitError, match=cap):
                faces_by_dimension(K)


@pytest.mark.parametrize("size", [22, 23])
def test_boundary_entries_cap_refuses_one_large_facet(size):
    # 2^22 and 2^23 faces pass the face cap; size * 2^(size-1) entries do not
    K = build_complex(range(size), [range(size)])
    with pytest.raises(ResourceLimitError, match="MAX_BOUNDARY_ENTRIES"):
        faces_by_dimension(K)
    assert len(faces_by_dimension(K, 1)[1]) == size * (size - 1) // 2


def test_faces_by_dimension_stops_at_top():
    K = build_complex(range(6), [range(5), [4, 5]])
    full = faces_by_dimension(K)
    assert faces_by_dimension(K, 1) == {q: full[q] for q in (-1, 0, 1)}
    assert faces_by_dimension(K, 9) == full


def test_face_bound_counts_faces_up_to_top(monkeypatch):
    K = build_complex(range(6), [range(6)])
    monkeypatch.setattr(simplicial, "MAX_LISTED_FACES", 1 + 6 + 15)
    assert len(faces_by_dimension(K, 1)[1]) == 15
    with pytest.raises(ResourceLimitError):
        faces_by_dimension(K, 2)
