import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_face, is_V_proper, scan_is_unavoidable
from tverrook import (
    Complex,
    InputError,
    Multiset,
    ResourceLimitError,
    build_complex,
    check_face_avoidance_unavoidable,
    constrain_complex,
    constraints,
    full_simplex,
    is_unavoidable,
)
from tverrook.constraints import minimal_non_faces


def V_abc(**mult):
    mapping = {0: mult.get("a", 1), 1: mult.get("b", 1), 2: mult.get("c", 1)}
    return Multiset.from_dict(mapping)


def test_multiset_basics():
    V = V_abc(a=2)
    assert dict(V.multiplicity) == {0: 2, 1: 1, 2: 1}
    assert V.weight({0, 1}) == 3
    with pytest.raises(InputError):
        V.weight({9})
    with pytest.raises(InputError):
        Multiset.from_dict({0: 0})


def test_multiset_json_round_trip():
    V = V_abc(b=3)
    data = {"vertices": [0, 1, 2], "multiplicity": {"0": 1, "1": 3, "2": 1}}
    assert Multiset.from_json(data) == V


def test_proper_collections():
    V2 = Multiset.from_dict({0: 2})
    assert is_V_proper(V2, [{0}, {0}], 2)
    V1 = Multiset.from_dict({0: 1})
    assert not is_V_proper(V1, [{0}, {0}], 2)
    assert is_V_proper(V1, [{0}, set()], 2)
    with pytest.raises(InputError):
        is_V_proper(V1, [{0}], 2)


def test_unavoidable_simple_cases():
    V = V_abc()
    K_bc = full_simplex({1, 2})
    assert K_bc.facets == ((1, 2),) and K_bc.universe == {1, 2}
    assert is_unavoidable(K_bc, 2, V).unavoidable
    K_c = full_simplex({2})
    verdict = is_unavoidable(K_c, 2, V)
    assert not verdict.unavoidable
    assert verdict.counterexample == ((0,), (1,))  # lexicographically least
    assert is_V_proper(V, verdict.counterexample, 2)
    assert all(not is_face(K_c, m) for m in verdict.counterexample)


def test_full_simplex_is_always_unavoidable():
    V = V_abc(a=2, b=2)
    K = full_simplex(V.universe)
    assert K.facets == (tuple(sorted(V.universe)),) and K.universe == V.universe
    for r in (2, 3, 4):
        assert is_unavoidable(K, r, V).unavoidable


def test_unavoidable_universe_mismatch():
    with pytest.raises(InputError):
        is_unavoidable(full_simplex({7}), 2, V_abc())


def test_unavoidable_guard(monkeypatch):
    V = Multiset.from_dict({v: 3 for v in range(12)})
    K = full_simplex({0})
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 10)
    with pytest.raises(ResourceLimitError):
        is_unavoidable(K, 6, V)


def test_minimal_non_faces_sorted_by_size_then_ids():
    K = build_complex(range(5), [(0, 1, 2), (2, 3)])
    # Vertex 4 lies in no facet, and every other non-face contains {0,3} or {1,3}.
    assert minimal_non_faces(K, [0, 1, 2, 3, 4], 100) == [(4,), (0, 3), (1, 3)]


def test_minimal_non_faces_degenerate_complexes():
    vertices = [0, 1, 2]
    singletons = [(0,), (1,), (2,)]
    assert minimal_non_faces(Complex(frozenset(vertices), ()), vertices, 100) == singletons
    assert minimal_non_faces(build_complex(vertices, [()]), vertices, 100) == singletons
    assert minimal_non_faces(full_simplex(vertices), vertices, 100) == []
    # Vertices of V outside the complex universe are non-faces too.
    assert minimal_non_faces(full_simplex({1}), vertices, 100) == [(0,), (2,)]


def test_minimal_non_faces_cap_the_intermediate_family(monkeypatch):
    # Berge's family reaches 12 sets on the way to the 8 minimal non-faces,
    # so the cap trips at 11 although the collection estimate (r = 1) is 8.
    K = build_complex(range(7), [(0, 2, 5), (1, 3, 4, 6), (2, 3, 4, 5)])
    V = Multiset.from_dict({v: 1 for v in range(7)})
    assert len(minimal_non_faces(K, list(range(7)), 12)) == 8
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 11)
    with pytest.raises(ResourceLimitError, match="minimal non-face"):
        is_unavoidable(K, 1, V)
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 12)
    assert is_unavoidable(K, 1, V).counterexample == ((0, 1),)


def test_counterexample_takes_most_copies_first():
    V = Multiset.from_dict({0: 2, 1: 3, 2: 1})
    verdict = is_unavoidable(full_simplex({2}), 4, V)
    assert verdict.counterexample == ((0,), (0,), (1,), (1,))
    # Placements: 0 twice, 1 twice; the collection is complete.
    assert verdict.stats == {"minimal_non_faces": 2, "collections_examined": 2}
    verdict = is_unavoidable(full_simplex({2}), 6, V)
    assert verdict.unavoidable
    # Copies of (0,) placed 2, 1, 0 times, each followed by 3, 2, 1 copies of (1,).
    assert verdict.stats == {"minimal_non_faces": 2, "collections_examined": 11}


def test_guard_counts_collections_of_minimal_non_faces(monkeypatch):
    # Two minimal non-faces, {0} and {1}: comb(2 + 2 - 1, 2) = 3 collections.
    V = V_abc()
    K = full_simplex({2})
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 3)
    assert not is_unavoidable(K, 2, V).unavoidable
    monkeypatch.setattr(constraints, "COLLECTION_GUARD", 2)
    with pytest.raises(ResourceLimitError, match="candidate collections"):
        is_unavoidable(K, 2, V)


def test_unavoidability_is_monotone():
    rng = random.Random(4)
    V = Multiset.from_dict({v: rng.randint(1, 2) for v in range(4)})
    for _ in range(10):
        n_facets = rng.randint(1, 3)
        facets = [
            tuple(sorted(rng.sample(range(4), rng.randint(1, 3)))) for _ in range(n_facets)
        ]
        K = build_complex(range(4), facets)
        bigger = build_complex(range(4), list(facets) + [tuple(sorted(rng.sample(range(4), 2)))])
        r = rng.randint(2, 3)
        if is_unavoidable(K, r, V).unavoidable:
            assert is_unavoidable(bigger, r, V).unavoidable


def test_face_avoidance_hypothesis_met():
    verdict = check_face_avoidance_unavoidable(V_abc(), {0}, 2)
    assert verdict.m_weight == 1
    assert verdict.hypothesis_holds
    assert verdict.unavoidable


def test_face_avoidance_hypothesis_failed():
    verdict = check_face_avoidance_unavoidable(V_abc(), {0, 1}, 2)
    assert verdict.m_weight == 2
    assert not verdict.hypothesis_holds
    assert not verdict.unavoidable
    assert verdict.counterexample == ((0,), (1,))


def test_face_avoidance_empty_set():
    verdict = check_face_avoidance_unavoidable(V_abc(), set(), 2)
    assert verdict.m_weight == 0
    assert verdict.hypothesis_holds
    assert verdict.unavoidable


def test_constrain_removes_vertices():
    K = build_complex(range(4), [(0, 1, 2), (2, 3)])
    out = constrain_complex(K, [{1}])
    assert out.universe == frozenset({0, 2, 3})
    assert out.facets == ((0, 2), (2, 3))
    assert all(set(f) <= out.universe for f in out.facets)


def test_constrain_empty_avoid_list_is_identity():
    K = build_complex(range(3), [(0, 1), (1, 2)])
    assert constrain_complex(K, []) == K


def test_constrain_rejects_overlapping_sets():
    K = build_complex(range(3), [(0, 1, 2)])
    with pytest.raises(InputError):
        constrain_complex(K, [{0, 1}, {1, 2}])


def test_constrain_composes():
    K = build_complex(range(5), [(0, 1, 2, 3), (3, 4)])
    step = constrain_complex(constrain_complex(K, [{0}]), [{4}])
    joint = constrain_complex(K, [{0}, {4}])
    assert step == joint
    assert all(set(f) <= joint.universe for f in joint.facets)


def test_constrain_whole_color_class_drops_dimension():
    # A join-like complex: facets pick one vertex from each of two classes.
    facets = [(a, b) for a in (0, 1) for b in (2, 3)]
    K = build_complex(range(4), facets)
    out = constrain_complex(K, [{0, 1}])
    assert out.dimension == 0
    assert out.facets == ((2,), (3,))
    assert all(set(f) <= out.universe for f in out.facets)


def test_exhaustive_avoidance_small_multiset():
    # Every S with m(S) <= r - 1 gives an unavoidable complex.
    V = Multiset.from_dict({0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
    r = 4
    vertices = sorted(V.universe)
    for size in range(0, len(vertices) + 1):
        for S in itertools.combinations(vertices, size):
            if V.weight(S) <= r - 1:
                verdict = check_face_avoidance_unavoidable(V, S, r)
                assert verdict.hypothesis_holds and verdict.unavoidable


@st.composite
def unavoidability_cases(draw):
    """A multiset on at most 7 vertices, r, and a complex on part of it.

    The facets are random subsets; some complexes have no facets at all, the
    empty facet only, or a facet equal to V.
    """
    n = draw(st.integers(1, 7))
    V = Multiset.from_dict({v: draw(st.integers(1, 3)) for v in range(n)})
    r = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "random", "random", "none", "empty", "whole"]))
    if kind == "none":
        return Complex(frozenset(range(n)), ()), r, V
    if kind == "empty":
        return build_complex(range(n), [()]), r, V
    subsets = st.lists(st.integers(0, n - 1), max_size=n)
    facets = draw(st.lists(subsets, min_size=1, max_size=5))
    if kind == "whole":
        facets.append(list(range(n)))
    universe = set(range(draw(st.integers(0, n)))).union(*facets)
    return build_complex(universe, facets), r, V


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=unavoidability_cases())
def test_minimal_non_face_search_matches_the_scan(case):
    K, r, V = case
    try:
        expected = scan_is_unavoidable(K, r, V)
    except ResourceLimitError:
        expected = None
    try:
        verdict = is_unavoidable(K, r, V)
    except ResourceLimitError:
        assert expected is None
        return
    if expected is not None:
        assert verdict.unavoidable == expected.unavoidable
        assert verdict.counterexample == expected.counterexample
    elif verdict.counterexample is not None:
        assert is_V_proper(V, verdict.counterexample, r)
        assert not any(is_face(K, m) for m in verdict.counterexample)
