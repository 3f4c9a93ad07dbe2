import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_search, naive_search_all
from tverrook import (
    ColoredPoint,
    DimCaps,
    Exhausted,
    InputError,
    PointConfig,
    TverbergInstance,
    TverbergSolution,
    build_example_a,
    hulls_intersect,
    lift_to_vertex_disjoint,
    rainbow_faces,
    random_balanced_config,
    random_prime_power_config,
    search_tverberg,
    search_tverberg_all,
    solve_balanced_caps,
    verify_solution,
)
from tverrook.exactlp import solve_equality_feasibility
from tverrook.geometry import (
    POLICY_LITERAL,
    POLICY_SHIFTED,
    _box,
    _grid_projections,
    _meet_masks,
    _search,
    format_rational,
    parse_rational,
)

F = Fraction


def pts(*data, d):
    return PointConfig(
        d, tuple(ColoredPoint(tuple(F(x) for x in c), color, mult) for c, color, mult in data)
    )


def test_rational_round_trip():
    for text in ("0", "-3/4", "7", "22/7"):
        assert format_rational(parse_rational(text)) == str(F(text))


def test_rational_zero_denominator_rejected():
    with pytest.raises(InputError):
        parse_rational("1/0")


def test_config_rejects_gappy_colors():
    with pytest.raises(InputError):
        pts(((0,), 0, 1), ((1,), 2, 1), d=1)


def test_config_rejects_zero_multiplicity():
    with pytest.raises(InputError):
        pts(((0,), 0, 0), d=1)


def test_config_json_round_trip():
    config = pts(((0, 1), 0, 2), (("1/2", "2/3"), 1, 1), d=2)
    assert PointConfig.from_json(config.to_json()) == config


def test_lp_feasible_and_infeasible():
    # x + y = 1, x - y = 0 -> x = y = 1/2.
    x = solve_equality_feasibility([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert x == [F(1, 2), F(1, 2)]
    # x = 1 and x = 2 cannot hold with x >= 0.
    assert solve_equality_feasibility([[F(1)], [F(1)]], [F(1), F(2)]) is None
    # Nonnegativity matters: x + y = -1 is infeasible.
    assert solve_equality_feasibility([[F(1), F(1)]], [F(-1)]) is None


def test_crossing_segments():
    config = pts(((0, 0), 0, 1), ((2, 2), 0, 1), ((0, 2), 1, 1), ((2, 0), 1, 1), d=2)
    got = hulls_intersect(config, [(0, 1), (2, 3)])
    assert got is not None
    witness, certs = got
    assert witness == (F(1), F(1))
    assert all(sum(c) == 1 for c in certs)


def test_separated_triangles():
    config = pts(
        ((0, 0), 0, 1), ((1, 0), 1, 1), ((0, 1), 2, 1),
        ((10, 10), 0, 1), ((11, 10), 1, 1), ((10, 11), 2, 1),
        d=2,
    )
    assert hulls_intersect(config, [(0, 1, 2), (3, 4, 5)]) is None


def test_hulls_reject_empty_face():
    config = pts(((0,), 0, 1), d=1)
    with pytest.raises(InputError):
        hulls_intersect(config, [(0,), ()])


def test_rainbow_faces_order_and_content():
    config = pts(((0,), 0, 1), ((1,), 0, 1), ((2,), 1, 1), d=1)
    faces = rainbow_faces(config)
    assert faces == [(0,), (1,), (2,), (0, 2), (1, 2)]


def test_colored_radon_on_a_line():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2))
    assert isinstance(sol, TverbergSolution)
    assert sol.witness == (F(1, 2),)
    assert sorted(sol.faces) == [(0, 1), (2,)]


def test_prime_power_instance_on_a_line():
    config = pts(
        ((0,), 0, 1), (("1/10",), 0, 2),
        ((1,), 1, 1), (("9/10",), 1, 2),
        (("1/2",), 2, 1),
        d=1,
    )
    instance = TverbergInstance(config, 4, mode="prime-power-1.3")
    sol = search_tverberg(instance)
    assert isinstance(sol, TverbergSolution)
    assert sol.witness == (F(1, 2),)
    assert verify_solution(config, sol)
    # Every face must touch the witness; multiplicity budget respected.
    usage = {}
    for f in sol.faces:
        for v in f:
            usage[v] = usage.get(v, 0) + 1
    assert all(usage[v] <= config.points[v].multiplicity for v in usage)


def test_two_far_points_exhaust():
    config = pts(((0,), 0, 1), ((1,), 1, 1), d=1)
    out = search_tverberg(TverbergInstance(config, 2))
    assert isinstance(out, Exhausted)
    # All candidate pairs are killed by budget or bounding-box pruning,
    # so no full tuple ever reaches the LP.
    assert out.candidates_examined == 0


def test_diagonal_boxes_prune_what_axis_boxes_miss():
    # The point (3/2, 0) lies in the axis box of the segment from the origin
    # to (3/2, 3/2), but x - y is 3/2 there and 0 on the whole segment.
    config = pts(((0, 0), 0, 1), (("3/2", "3/2"), 1, 1), (("3/2", 0), 2, 1), d=2)
    projections = _grid_projections(config)
    assert projections == [(0, 0, 0, 0), (3, 3, 6, 0), (3, 0, 3, 3)]  # x, y, x + y, x - y; L = 2
    segment, point = _box(projections, (0, 1)), _box(projections, (2,))
    axis = [(lo[:2], hi[:2]) for lo, hi in (segment, point)]
    assert _meet_masks(axis) == [0b11, 0b11]
    assert _meet_masks([segment, point]) == [0b01, 0b10]
    out = search_tverberg(TverbergInstance(config, 2))
    assert isinstance(out, Exhausted)
    assert out.candidates_examined == 0
    assert out.stats == {
        "rainbow_faces": 7,
        "pruned_dim_cap": 0,
        "pruned_budget": 22,
        "pruned_box": 6,
        "lp_calls": 0,
        "lp_feasible": 0,
    }


def _rational_box(config, face):
    """A face's box by direct `Fraction` projections onto e_i, e_i + e_j, e_i - e_j."""
    d = config.d
    pairs = list(itertools.combinations(range(d), 2))
    directions = [[int(a == i) for a in range(d)] for i in range(d)]
    directions += [[int(a in (i, j)) for a in range(d)] for i, j in pairs]
    directions += [[(a == i) - (a == j) for a in range(d)] for i, j in pairs]
    values = [
        [sum(u * c for u, c in zip(direction, config.points[v].coords)) for v in face]
        for direction in directions
    ]
    return tuple(min(vs) for vs in values), tuple(max(vs) for vs in values)


@st.composite
def free_instances(draw):
    """Small free-mode instances with mixed coordinate denominators (L > 1).

    d in {1, 2, 3}, r in {2, 3}, at most 6 points, multiplicities 1-2, both
    disjointness modes, sometimes dimension caps.
    """
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 3))
    n = draw(st.integers(2, 6))
    num_colors = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, num_colors - 1), min_size=n - num_colors, max_size=n - num_colors))
    colors = sorted(list(range(num_colors)) + extra)
    coord = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    points = []
    for i in range(n):
        coords = draw(st.lists(coord, min_size=d, max_size=d))
        if i == 0:
            coords[0] = F(2 * draw(st.integers(-3, 3)) + 1, 2)
        points.append(ColoredPoint(tuple(coords), colors[i], draw(st.integers(1, 2))))
    caps = draw(st.one_of(
        st.none(),
        st.builds(DimCaps, st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from([POLICY_SHIFTED, POLICY_LITERAL])),
    ))
    disjointness = draw(st.sampled_from(["multiset-proper", "vertex-disjoint"]))
    return TverbergInstance(PointConfig(d, tuple(points)), r, dim_caps=caps, disjointness=disjointness)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=free_instances())
def test_pruned_search_matches_naive_enumerator_on_random_instances(instance):
    assert search_tverberg_all(instance) == naive_search_all(instance)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=free_instances())
def test_boxes_are_scaled_projections_and_a_miss_is_infeasible(instance):
    config = instance.config
    projections = _grid_projections(config)
    L = math.lcm(*(c.denominator for pt in config.points for c in pt.coords))
    assert L > 1
    faces = rainbow_faces(config)
    boxes = [_box(projections, f) for f in faces]
    rational = [_rational_box(config, f) for f in faces]
    for (lo, hi), (want_lo, want_hi) in zip(boxes, rational):
        assert lo == tuple(L * x for x in want_lo) and hi == tuple(L * x for x in want_hi)
    # On a line, intervals meet as a family iff they meet pairwise, so the
    # boxes of a tuple miss iff those of one pair of its faces do.
    meets = _meet_masks(boxes)
    for i, j in itertools.combinations_with_replacement(range(len(faces)), 2):
        (lo_i, hi_i), (lo_j, hi_j) = rational[i], rational[j]
        meet = all(a <= d and c <= b for a, b, c, d in zip(lo_i, hi_i, lo_j, hi_j))
        assert (meets[i] >> j & 1, meets[j] >> i & 1) == (meet, meet)
        if not meet:
            assert hulls_intersect(config, [faces[i], faces[j]]) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=free_instances(), find_all=st.booleans())
def test_mask_search_matches_the_face_at_a_time_loop(instance, find_all):
    got, got_stats = _search(instance, find_all)
    want, want_stats = loop_search(instance, find_all)
    assert got_stats == want_stats
    assert [(s.faces, s.witness, s.certificates) for s in got] == [
        (s.faces, s.witness, s.certificates) for s in want
    ]


def test_mode_validation_failures():
    good = random_prime_power_config(2, 2, 1, seed=0)
    with pytest.raises(InputError):
        search_tverberg(TverbergInstance(good, 6, mode="prime-power-1.3"))  # not a prime power
    bad = pts(((0,), 0, 1), ((1,), 1, 1), ((2,), 2, 1), d=1)
    with pytest.raises(InputError):
        search_tverberg(TverbergInstance(bad, 4, mode="prime-power-1.3"))
    with pytest.raises(InputError):
        TverbergInstance(good, 4, mode="nonsense")


def test_equal_classes_mode_total_check():
    # r=2, d=1: total must be (r-1)(d+1)+1 = 3.
    config = pts(((0,), 0, 1), ((3,), 1, 1), (("3/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2, mode="equal-classes-6.3"))
    assert isinstance(sol, TverbergSolution)
    heavy = pts(((0,), 0, 2), ((3,), 1, 2), (("3/2",), 2, 1), d=1)
    with pytest.raises(InputError):
        search_tverberg(TverbergInstance(heavy, 2, mode="equal-classes-6.3"))


def test_verify_solution_rejects_tampering():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2))
    wrong_witness = TverbergSolution(sol.faces, (F(1, 3),), sol.certificates)
    assert not verify_solution(config, wrong_witness)
    bad_cert = TverbergSolution(
        sol.faces, sol.witness, tuple((c[:-1] + (c[-1] + 1,)) for c in sol.certificates)
    )
    assert not verify_solution(config, bad_cert)


def test_solution_json_round_trip():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2))
    assert TverbergSolution.from_json(sol.to_json()) == sol


def test_balanced_caps_solver():
    assert solve_balanced_caps(2, 2) == (1, 0)
    assert solve_balanced_caps(3, 3) == (2, 0)
    assert solve_balanced_caps(2, 3) == (1, 1)
    with pytest.raises(InputError):
        solve_balanced_caps(3, 1)  # k would be 0


def test_balanced_square_with_center():
    config = pts(
        ((0, 0), 0, 1), ((2, 0), 1, 1), ((2, 2), 2, 1), ((0, 2), 3, 1), ((1, 1), 4, 1),
        d=2,
    )
    instance = TverbergInstance(config, 2, mode="balanced-1.6", disjointness="vertex-disjoint")
    sol = search_tverberg(instance)
    assert isinstance(sol, TverbergSolution)
    assert sol.witness == (F(1), F(1))
    assert sol.policy == "shifted-k-plus-1"
    # The two diagonals themselves also cross exactly at the center.
    witness, _ = hulls_intersect(config, [(0, 2), (1, 3)])
    assert witness == (F(1), F(1))


def test_balanced_policies_disagree_generically():
    config = random_balanced_config(2, 2, seed=1)
    shifted = TverbergInstance(
        config, 2, mode="balanced-1.6", dim_caps=DimCaps(1, 0), disjointness="vertex-disjoint"
    )
    sol = search_tverberg(shifted)
    assert isinstance(sol, TverbergSolution)
    assert all(len(f) <= 2 for f in sol.faces)
    literal = TverbergInstance(
        config, 2, mode="balanced-1.6",
        dim_caps=DimCaps(1, 0, policy="literal-k"), disjointness="vertex-disjoint",
    )
    assert isinstance(search_tverberg(literal), Exhausted)


def test_balanced_rejects_oversized_class():
    config = pts(
        ((0, 0), 0, 1), ((2, 0), 0, 1), ((2, 2), 0, 1), ((0, 2), 1, 1), ((1, 1), 2, 1),
        d=2,
    )
    with pytest.raises(InputError):
        search_tverberg(
            TverbergInstance(config, 2, mode="balanced-1.6", disjointness="vertex-disjoint")
        )


def test_example_a_on_a_segment():
    config, instance = build_example_a(2, 1, 1)
    coords = sorted(pt.coords[0] for pt in config.points)
    assert coords == [F(0), F(3, 2), F(3)]
    sol = search_tverberg(instance)
    assert sol.witness == (F(3, 2),)


def test_example_a_in_the_plane():
    config, instance = build_example_a(2, 2, 2)
    sol = search_tverberg(instance)
    assert sol.witness == (F(1), F(1))  # the barycenter of (0,0), (3,0), (0,3)


def test_example_a_scattered_still_solvable():
    for seed in range(3):
        config, instance = build_example_a(2, 2, 2, epsilon=F(1, 100), seed=seed)
        sol = search_tverberg(instance)
        assert isinstance(sol, TverbergSolution)
        assert verify_solution(config, sol)


def test_example_a_guard():
    with pytest.raises(InputError):
        build_example_a(2, 4, 1)


def test_lift_produces_disjoint_faces():
    config = pts(
        ((0,), 0, 1), (("1/10",), 0, 2),
        ((1,), 1, 1), (("9/10",), 1, 2),
        (("1/2",), 2, 1),
        d=1,
    )
    sol = search_tverberg(TverbergInstance(config, 4, mode="prime-power-1.3"))
    lifted = lift_to_vertex_disjoint(config, sol, 4)
    assert len(lifted.config.points) == 7  # classes blown up to 3 + 3 + 1 vertices
    assert lifted.solution.witness == sol.witness
    seen = set()
    for f in lifted.solution.faces:
        assert not seen & set(f)
        seen.update(f)
    # Projecting lifted faces back recovers the abridged faces.
    projected = tuple(
        tuple(sorted({lifted.projection[v] for v in f})) for f in lifted.solution.faces
    )
    assert sorted(projected) == sorted(sol.faces)
    assert verify_solution(lifted.config, lifted.solution)


def test_lift_is_identity_for_multiplicity_one():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2))
    lifted = lift_to_vertex_disjoint(config, sol, 2)
    assert len(lifted.config.points) == len(config.points)
    assert sorted(lifted.projection.items()) == [(0, 0), (1, 1), (2, 2)]


def test_lift_rejects_wrong_class_weights():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol = search_tverberg(TverbergInstance(config, 2))
    with pytest.raises(InputError):
        lift_to_vertex_disjoint(config, sol, 3)


def test_random_prime_power_instances_never_exhaust():
    for p, k, d in [(2, 1, 1), (3, 1, 1), (2, 2, 1)]:
        for seed in range(3):
            config = random_prime_power_config(p, k, d, seed)
            sol = search_tverberg(TverbergInstance(config, p**k, mode="prime-power-1.3"))
            assert isinstance(sol, TverbergSolution)
            assert verify_solution(config, sol)


def test_pruned_search_matches_naive_enumerator():
    cases = [
        TverbergInstance(pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1), 2),
        TverbergInstance(
            pts(((0,), 0, 2), ((1,), 1, 1), (("1/3",), 2, 1), (("2/3",), 2, 1), d=1), 3
        ),
        TverbergInstance(
            pts(((0, 0), 0, 1), ((2, 2), 0, 1), ((0, 2), 1, 1), ((2, 0), 1, 1), d=2), 2
        ),
        TverbergInstance(
            pts(((0,), 0, 1), ((5,), 1, 1), d=1), 2
        ),
        TverbergInstance(
            pts(((0, 0), 0, 1), ((2, 0), 1, 1), ((1, 2), 2, 1), ((1, "1/2"), 3, 1), d=2),
            2,
            disjointness="vertex-disjoint",
        ),
    ]
    for instance in cases:
        pruned = sorted(search_tverberg_all(instance))
        naive = sorted(naive_search_all(instance))
        assert pruned == naive
