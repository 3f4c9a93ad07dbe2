import functools
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fixtures import random_balanced_config, random_prime_power_config
from oracles import (
    backtrack_can_pack,
    face_boxes,
    fraction_hulls_intersect,
    fraction_verify_solution,
    loop_search,
    naive_search_all,
    pairwise_meet_masks,
    search_tverberg_all,
)
from tverrook import (
    ColoredPoint,
    DimCaps,
    InputError,
    PointConfig,
    ResourceLimitError,
    TverbergInstance,
    TverbergSolution,
    build_example_a,
    hulls_intersect,
    lift_to_vertex_disjoint,
    multiplicity_vector,
    rainbow_faces,
    search_tverberg,
    solve_balanced_caps,
    verify_solution,
)
from tverrook import geometry
from tverrook.exactlp import solve_equality_feasibility
from tverrook.geometry import (
    MAX_PARTS,
    MODES,
    POLICY_LITERAL,
    POLICY_SHIFTED,
    _can_pack,
    _grid,
    _grid_projections,
    _meet_masks,
    format_rational,
    parse_rational,
)
from tverrook.geometry import search_tverberg as _search

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
    x, z, _ = solve_equality_feasibility([[1, 1], [1, -1]], [1, 0])
    assert (x, z) == ([F(1, 2), F(1, 2)], None)
    # x = 1 and x = 2 cannot hold with x >= 0, nor can z0 x + z1 x = z0 + 2 z1
    # with the left side >= 0 and the right < 0.
    x, z, _ = solve_equality_feasibility([[1], [1]], [1, 2])
    assert x is None and z[0] + z[1] >= 0 > z[0] + 2 * z[1]
    # Nonnegativity matters: x + y = -1 is infeasible.
    x, z, _ = solve_equality_feasibility([[1, 1]], [-1])
    assert x is None and z[0] > 0


def test_crossing_segments():
    config = pts(((0, 0), 0, 1), ((2, 2), 0, 1), ((0, 2), 1, 1), ((2, 0), 1, 1), d=2)
    got, z, _ = hulls_intersect([(0, 1), (2, 3)], _grid(config))
    assert got is not None and z is None
    witness, certs = got
    assert witness == (F(1), F(1))
    assert all(sum(c) == 1 for c in certs)


def test_separated_triangles():
    config = pts(
        ((0, 0), 0, 1), ((1, 0), 1, 1), ((0, 1), 2, 1),
        ((10, 10), 0, 1), ((11, 10), 1, 1), ((10, 11), 2, 1),
        d=2,
    )
    got, z, _ = hulls_intersect([(0, 1, 2), (3, 4, 5)], _grid(config))
    assert got is None and z is not None


def test_rainbow_faces_order_and_content():
    config = pts(((0,), 0, 1), ((1,), 0, 1), ((2,), 1, 1), d=1)
    faces = rainbow_faces(config)
    assert faces == [(0,), (1,), (2,), (0, 2), (1, 2)]


def test_colored_radon_on_a_line():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol, _ = search_tverberg(TverbergInstance(config, 2))
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
    sol, _ = search_tverberg(instance)
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
    out, stats = search_tverberg(TverbergInstance(config, 2))
    assert out is None
    # All candidate pairs are killed by budget or bounding-box pruning,
    # so no full tuple ever reaches the LP.
    assert stats["lp_calls"] + stats["pruned_farkas"] == 0


def test_diagonal_boxes_prune_what_axis_boxes_miss():
    # The point (3/2, 0) lies in the axis box of the segment from the origin
    # to (3/2, 3/2), but x - y is 3/2 there and 0 on the whole segment.
    config = pts(((0, 0), 0, 1), (("3/2", "3/2"), 1, 1), (("3/2", 0), 2, 1), d=2)
    projections = _grid_projections(_grid(config)[1])
    assert projections == [(0, 0, 0, 0), (3, 3, 6, 0), (3, 0, 3, 3)]  # x, y, x + y, x - y; L = 2
    faces = rainbow_faces(config)
    touch = _touch(config, faces)
    segment, point = faces.index((0, 1)), faces.index((2,))
    both = 1 << segment | 1 << point
    axis_row = _meet_masks([x[:2] for x in projections], touch)
    axis = [axis_row(f) for f in faces]
    assert (axis[segment] & both, axis[point] & both) == (both, both)
    meet_row = _meet_masks(projections, touch)
    meets = [meet_row(f) for f in faces]
    assert (meets[segment] & both, meets[point] & both) == (1 << segment, 1 << point)
    out, stats = search_tverberg(TverbergInstance(config, 2))
    assert out is None
    assert stats["lp_calls"] + stats["pruned_farkas"] == 0
    assert stats == {
        "rainbow_faces": 7,
        "box_rows": 7,
        "pruned_dim_cap": 0,
        "pruned_budget": 22,
        "pruned_box": 6,
        "pruned_color": 0,
        "pruned_farkas": 0,
        "lp_calls": 0,
        "lp_feasible": 0,
        "lp_pivots": 0,
        "lp_direct": 0,
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


def _touch(config, faces):
    """Per point, the bitmask of the faces that contain it."""
    return [sum(1 << fi for fi, f in enumerate(faces) if v in f) for v in range(len(config.points))]


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
    L, points = _grid(config)
    assert L == math.lcm(*(c.denominator for pt in config.points for c in pt.coords)) > 1
    faces = rainbow_faces(config)
    projections = _grid_projections(points)
    boxes = face_boxes(faces, projections)
    rational = [_rational_box(config, f) for f in faces]
    for (lo, hi), (want_lo, want_hi) in zip(boxes, rational):
        assert lo == tuple(L * x for x in want_lo) and hi == tuple(L * x for x in want_hi)
    # On a line, intervals meet as a family iff they meet pairwise, so the
    # boxes of a tuple miss iff those of one pair of its faces do.
    meet_row = _meet_masks(projections, _touch(config, faces))
    meets = [meet_row(f) for f in faces]
    assert meets == pairwise_meet_masks(boxes)
    for i, j in itertools.combinations_with_replacement(range(len(faces)), 2):
        (lo_i, hi_i), (lo_j, hi_j) = rational[i], rational[j]
        meet = all(a <= d and c <= b for a, b, c, d in zip(lo_i, hi_i, lo_j, hi_j))
        assert (meets[i] >> j & 1, meets[j] >> i & 1) == (meet, meet)
        if not meet:
            assert hulls_intersect([faces[i], faces[j]], (L, points))[0] is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=free_instances(), budget=st.sampled_from([1, 40, 400, geometry.MAX_CHAIN_BITS]))
def test_box_rows_are_exact_when_the_chains_keep_every_step_th_rank(instance, budget):
    # A small MAX_CHAIN_BITS makes _meet_masks keep the ORs of only some
    # ranks (with budget 1, only the top and the bottom one) and fill in the
    # others from the points in between; no row may change.
    config = instance.config
    faces = rainbow_faces(config)
    projections = _grid_projections(_grid(config)[1])
    with mock.patch.object(geometry, "MAX_CHAIN_BITS", budget):
        meet_row = _meet_masks(projections, _touch(config, faces))
    assert [meet_row(f) for f in faces] == pairwise_meet_masks(face_boxes(faces, projections))


def test_example_a_box_rows_are_exact_at_every_step():
    # At epsilon = 0 many projections tie, so ranks hold several points.
    for epsilon, budget in itertools.product((F(0), F(1, 100)), (1, 100, 1000, 5000)):
        config = build_example_a(2, 2, 2, epsilon=epsilon, seed=3)[0]
        faces = rainbow_faces(config)
        projections = _grid_projections(_grid(config)[1])
        with mock.patch.object(geometry, "MAX_CHAIN_BITS", budget):
            meet_row = _meet_masks(projections, _touch(config, faces))
        assert [meet_row(f) for f in faces] == pairwise_meet_masks(face_boxes(faces, projections))


def test_box_chains_of_one_large_color_class_stay_within_their_budget():
    # One color class of 4096 distinct points at d = 4 passes both guards,
    # and its faces are the 4096 singletons.  An OR per rank would keep
    # 2 d^2 * 4096 * 4096 bits (64 MiB); the kept chains stay within
    # MAX_CHAIN_BITS (16 MiB), and the rest of the set-up is per point.
    n, d = 4096, 4
    config = PointConfig(d, tuple(
        ColoredPoint(tuple(F(i * (7919 + 104729 * a) % 1000003) for a in range(d)), 0, 1)
        for i in range(n)
    ))
    projections = _grid_projections(_grid(config)[1])
    tracemalloc.start()
    try:
        meet_row = _meet_masks(projections, [1 << v for v in range(n)])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < (geometry.MAX_CHAIN_BITS >> 3) + (12 << 20)
    assert peak < (geometry.MAX_CHAIN_BITS >> 3) + (24 << 20)
    # distinct points: a singleton's box meets only its own
    assert all(meet_row((v,)) == 1 << v for v in range(0, n, 37))


def assert_same_counts_but_the_cut(got_stats, want_stats):
    """`_search`'s counters against those of `loop_search`, which sends every
    full tuple to the LP: the same, but that its LP calls are `_search`'s
    plus the tuples that the Farkas cut skipped."""
    got = dict(got_stats)
    assert got.pop("lp_calls") + got.pop("pruned_farkas") == want_stats["lp_calls"]
    got.pop("lp_pivots")
    got.pop("lp_direct")
    got.pop("box_rows")
    assert got == {key: value for key, value in want_stats.items() if key != "lp_calls"}


def test_mask_search_matches_the_face_at_a_time_loop():
    totals = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(instance=free_instances())
    def compare(instance):
        got, got_stats = _search(instance)
        want, want_stats = loop_search(instance, False)
        assert_same_counts_but_the_cut(got_stats, want_stats)
        assert ([] if got is None else [got]) == want
        totals.update(got_stats)

    compare()
    # the drawn instances exercise every rule of the comparison
    rules = ("pruned_dim_cap", "pruned_budget", "pruned_box", "pruned_color", "pruned_farkas")
    assert all(totals[rule] > 0 for rule in rules), totals


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instance=free_instances())
def test_farkas_cut_skips_only_infeasible_tuples(instance):
    # loop_search sends every full tuple up to the first solution to the LP,
    # and _search the same ones but those it cuts
    sent = {"search": [], "loop": []}

    def spy(name):
        def record(faces, grid):
            sent[name].append(tuple(faces))
            return hulls_intersect(faces, grid)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "hulls_intersect", spy("search"))
        patch.setattr(oracles, "hulls_intersect", spy("loop"))
        _, stats = _search(instance)
        loop_search(instance, False)
    cut = list(sent["loop"])
    for faces in sent["search"]:
        cut.remove(faces)
    assert len(cut) == stats["pruned_farkas"]
    assert len(sent["search"]) == stats["lp_calls"]
    for faces in cut:
        assert fraction_hulls_intersect(instance.config, faces) is None, faces


def test_farkas_cut_on_a_free_instance():
    # Instance 186 of the free table that the benchmark draws from: without
    # the cut, 96 full tuples go to the LP.  Every class weighs at most
    # 2 < r, and the color-budget cut closes prefixes of depth 1 on 23 faces
    # that the budget and box masks left.
    config = pts(
        (("-9/4", 9), 0, 1), ((-2, 5), 1, 2), ((-1, "1/2"), 2, 2), (("9/4", -8), 3, 2), ((8, -3), 4, 1),
        d=2,
    )
    instance = TverbergInstance(config, 3)
    sol, stats = search_tverberg(instance)
    assert sol.faces == ((0, 2), (1, 3), (1, 3))
    assert (stats["lp_calls"], stats["pruned_farkas"]) == (21, 75)
    assert (stats["pruned_budget"], stats["pruned_box"], stats["pruned_color"]) == (501, 110, 23)
    solutions, want_stats = loop_search(instance, False)
    assert [s.faces for s in solutions] == [sol.faces] and want_stats["lp_calls"] == 96
    assert_same_counts_but_the_cut(stats, want_stats)


@pytest.mark.parametrize("policy", [POLICY_LITERAL, POLICY_SHIFTED])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_capped_search_builds_only_the_faces_it_can_visit(monkeypatch, policy, s):
    built = []

    def spy(config, top=None):
        built.append(rainbow_faces(config, top))
        return built[-1]

    monkeypatch.setattr(geometry, "rainbow_faces", spy)
    rng = random.Random(s)
    totals = Counter()
    for n, r, disjointness in [(5, 2, "vertex-disjoint"), (5, 3, "multiset-proper"),
                               (6, 2, "multiset-proper"), (6, 3, "vertex-disjoint")]:
        # one color class of two points, the others single points
        config = PointConfig(2, tuple(
            ColoredPoint((F(rng.randint(-4, 4), rng.choice([1, 2])), F(rng.randint(-4, 4))),
                         max(i - 1, 0), rng.randint(1, 2))
            for i in range(n)
        ))
        all_faces = rainbow_faces(config)
        for k in (0, 1):
            caps = DimCaps(k, s, policy)
            instance = TverbergInstance(config, r, dim_caps=caps, disjointness=disjointness)
            got, got_stats = _search(instance)
            want, want_stats = loop_search(instance, False)
            assert_same_counts_but_the_cut(got_stats, want_stats)
            assert ([] if got is None else [got]) == want
            assert got_stats["rainbow_faces"] == len(all_faces)
            assert built[-1] == [f for f in all_faces if len(f) <= caps.max_dim + 1]
            totals.update(got_stats)
    assert totals["pruned_dim_cap"] > 0 and totals["lp_calls"] > 0


def test_free_search_on_one_large_color_class():
    # 8191 faces, just inside MAX_RAINBOW_FACES: the boxes of two distinct
    # points miss on the x axis, and multiplicity 1 keeps a point from
    # pairing with itself, so no tuple reaches the LP
    points = tuple(ColoredPoint((F(i), F(i * i % 97)), 0, 1) for i in range(8191))
    start = time.perf_counter()
    out, stats = search_tverberg(TverbergInstance(PointConfig(2, points), 2))
    assert time.perf_counter() - start < 2
    assert out is None
    assert (stats["rainbow_faces"], stats["lp_calls"]) == (8191, 0)


def _solution_tuples(instance, data):
    """The face tuples of the instance's solutions, and a few drawn r-tuples
    of rainbow faces, most of them infeasible."""
    solutions, _ = loop_search(instance, True)
    faces = rainbow_faces(instance.config)
    drawn = data.draw(st.lists(
        st.lists(st.sampled_from(faces), min_size=instance.r, max_size=instance.r), max_size=6,
    ))
    return [s.faces for s in solutions[:6]] + drawn


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instance=free_instances(), data=st.data())
def test_grid_rows_match_the_fraction_rows(instance, data):
    config = instance.config
    grid = _grid(config)
    for faces in _solution_tuples(instance, data):
        assert hulls_intersect(faces, grid)[0] == fraction_hulls_intersect(config, faces)


def test_grid_rows_on_coordinates_of_different_denominators():
    # L = lcm(3, 2, 4, 5, 7) = 420, and the segments cross at (1715/2102, 3345/4204)
    config = pts(((0, "1/3"), 0, 1), (("5/2", "7/4"), 1, 1), (("2/5", "3/2"), 0, 1), (("9/7", 0), 1, 1), d=2)
    grid = _grid(config)
    assert grid[0] == 420
    got = hulls_intersect([(0, 1), (2, 3)], grid)[0]
    assert got is not None and got == fraction_hulls_intersect(config, [(0, 1), (2, 3)])
    witness, certificates = got
    assert witness == (F(1715, 2102), F(3345, 4204))
    assert verify_solution(config, TverbergSolution(((0, 1), (2, 3)), witness, certificates))
    assert hulls_intersect([(0,), (2, 3)], grid)[0] is None is fraction_hulls_intersect(config, [(0,), (2, 3)])


@functools.lru_cache(maxsize=None)
def _example_a_solution(p, k, d, seed):
    config, instance = build_example_a(p, k, d, epsilon=F(1, 100), seed=seed)
    return (config, *search_tverberg(instance))


@st.composite
def found_solutions(draw):
    """(config, solution): a solution of Example A (p^k = 4 in the plane or
    3 on a line, seeds 0..11) or of a drawn free instance."""
    if draw(st.booleans()):
        p, k, d = draw(st.sampled_from([(2, 2, 2), (3, 1, 1)]))
        return _example_a_solution(p, k, d, draw(st.integers(0, 11)))[:2]
    instance = draw(free_instances())
    solutions, _ = loop_search(instance, True)
    assume(solutions)
    return instance.config, draw(st.sampled_from(solutions))


def _moved(values, i, step):
    return values[:i] + (values[i] + step,) + values[i + 1:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(found=found_solutions(), data=st.data())
def test_integer_resubstitution_matches_the_fraction_oracle(found, data):
    config, sol = found
    assert verify_solution(config, sol) and fraction_verify_solution(config, sol)
    fi = data.draw(st.integers(0, len(sol.faces) - 1))
    face, cert = sol.faces[fi], sol.certificates[fi]
    j = data.draw(st.integers(0, len(face) - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    D = math.lcm(*(c.denominator for c in cert))
    L = math.lcm(*(c.denominator for pt in config.points for c in pt.coords))
    coord = data.draw(st.integers(0, config.d - 1))
    swapped = (face[j] + data.draw(st.integers(1, len(config.points)))) % len(config.points)
    tampered = [
        sol._replace(certificates=sol.certificates[:fi] + (_moved(cert, j, F(sign, D)),)
                     + sol.certificates[fi + 1:]),
        sol._replace(witness=_moved(sol.witness, coord, F(sign, L))),
        sol._replace(faces=sol.faces[:fi] + (face[:j] + (swapped,) + face[j + 1:],) + sol.faces[fi + 1:]),
    ]
    for bad in tampered:
        assert verify_solution(config, bad) == fraction_verify_solution(config, bad)
    assert not verify_solution(config, tampered[0]) and not verify_solution(config, tampered[1])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pk=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]), data=st.data())
def test_closed_form_packing_matches_backtracking(pk, data):
    p, k = pk
    r = p**k
    weights = data.draw(st.lists(st.sampled_from([p**i for i in range(k)]), max_size=9))
    bins = data.draw(st.integers(0, 4))
    assert _can_pack(Counter(weights), bins, r) == backtrack_can_pack(weights, bins, r - 1)


def test_mode_validation_failures():
    good = random_prime_power_config(2, 2, 1, seed=0)
    with pytest.raises(InputError):
        TverbergInstance(good, 6, mode="prime-power-1.3")  # not a prime power
    bad = pts(((0,), 0, 1), ((1,), 1, 1), ((2,), 2, 1), d=1)
    with pytest.raises(InputError):
        TverbergInstance(bad, 4, mode="prime-power-1.3")
    with pytest.raises(InputError):
        TverbergInstance(good, 4, mode="nonsense")


def _one_point_colours(n, d=1):
    """n one-point color classes, point i at i on every axis."""
    return pts(*[((i,) * d, i, 1) for i in range(n)], d=d)


# the balanced square with its center: (r-1)(d+2)+1 = 5 points, r = 2, d = 2
SQUARE = pts(((0, 0), 0, 1), ((2, 0), 1, 1), ((2, 2), 2, 1), ((0, 2), 3, 1), ((1, 1), 4, 1), d=2)
BALANCED = {"mode": "balanced-1.6", "disjointness": "vertex-disjoint"}


# r = 4: classes 0 and 1 are L = (1, 2), the last is [1]
PRIME_POWER_LINE = pts(
    ((0,), 0, 1), (("1/10",), 0, 2), ((1,), 1, 1), (("9/10",), 1, 2), (("1/2",), 2, 1), d=1,
)


# (an instance that holds its mode's hypotheses, one that fails the named
# one, the start of the error that names it)
HYPOTHESIS_CASES = {
    "1.3-classes": (
        lambda: TverbergInstance(PRIME_POWER_LINE, 4, mode="prime-power-1.3"),
        lambda: TverbergInstance(_one_point_colours(3), 4, mode="prime-power-1.3"),
        "missing multiplicities",
    ),
    "6.2-c-below-1": (
        lambda: TverbergInstance(_one_point_colours(3), 2, mode="generalized-6.2", constraint_count=1),
        lambda: TverbergInstance(_one_point_colours(3), 2, mode="generalized-6.2"),
        "generalized mode needs",
    ),
    # with c = 1 and r = 2, classes 0..2 are within [1] and class 3 is [1];
    # two one-point classes leave two units unused, one removed set holds one
    "6.2-packing": (
        lambda: TverbergInstance(_one_point_colours(3), 2, mode="generalized-6.2", constraint_count=1),
        lambda: TverbergInstance(_one_point_colours(2), 2, mode="generalized-6.2", constraint_count=1),
        "missing multiplicities",
    ),
    "6.3-total": (
        lambda: TverbergInstance(PRIME_POWER_LINE, 4, mode="equal-classes-6.3"),
        lambda: TverbergInstance(PointConfig(1, PRIME_POWER_LINE.points[1:]), 4, mode="equal-classes-6.3"),
        "total multiplicity",
    ),
    "1.6-size": (
        lambda: TverbergInstance(SQUARE, 2, **BALANCED),
        lambda: TverbergInstance(PointConfig(2, SQUARE.points[:4]), 2, **BALANCED),
        "balanced mode needs",
    ),
    "1.6-disjointness": (
        lambda: TverbergInstance(SQUARE, 2, **BALANCED),
        lambda: TverbergInstance(SQUARE, 2, mode="balanced-1.6"),
        "balanced mode requires",
    ),
    # on a line no positive k solves r*k + s = (r-1)*d: without caps the
    # instance has none to fill in, and with caps the check still fails
    "1.6-no-k": (
        lambda: TverbergInstance(SQUARE, 2, **BALANCED),
        lambda: TverbergInstance(_one_point_colours(4), 2, **BALANCED),
        "no positive k",
    ),
    "1.6-no-k-with-caps": (
        lambda: TverbergInstance(SQUARE, 2, dim_caps=DimCaps(1, 0), **BALANCED),
        lambda: TverbergInstance(_one_point_colours(4), 2, dim_caps=DimCaps(1, 0), **BALANCED),
        "no positive k",
    ),
}


@pytest.mark.parametrize("good, bad, message", HYPOTHESIS_CASES.values(), ids=HYPOTHESIS_CASES.keys())
def test_an_instance_checks_its_hypotheses_when_it_is_made(good, bad, message):
    assert isinstance(good(), TverbergInstance)
    with pytest.raises(InputError, match=message):
        bad()


def test_a_balanced_instance_gets_its_caps_when_it_is_made():
    config = random_balanced_config(2, 3, seed=0)
    made = TverbergInstance(config, 2, **BALANCED)
    assert made.dim_caps == DimCaps(*solve_balanced_caps(2, 3)) == DimCaps(1, 1, POLICY_SHIFTED)
    given = DimCaps(1, 0, POLICY_LITERAL)
    assert TverbergInstance(config, 2, dim_caps=given, **BALANCED).dim_caps is given
    assert TverbergInstance(config, 2).dim_caps is None  # only the balanced mode fills caps


# r = p^k for the r the validator cases draw; 6 is not a prime power
PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}


@st.composite
def class_cases(draw):
    """(d, r, classes): the multiplicities of color classes 0, 1, ... in turn.

    d in {1, 2}, r in {2, 3, 4, 6, 8, 9}.  Between d and d + 3 classes near
    L: all of it (twice as likely as each other kind), one element short,
    one element extra, or a short random list.  Then a last class [1], two
    vertices [1, 1], one vertex of multiplicity 2, or none.  Fewer classes
    than a mode expects leave its last colors missing.
    """
    d = draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([2, 3, 4, 6, 8, 9]))
    L = list(multiplicity_vector(*PRIME_POWERS.get(r, (2, 2))))
    weights = st.sampled_from([1, 2, 3, 4, 8, 9])
    classes = []
    for _ in range(draw(st.integers(d, d + 3))):
        kind = draw(st.sampled_from(["L", "L", "short", "extra", "random"]))
        if kind == "L":
            mults = L
        elif kind == "short":
            i = draw(st.integers(0, len(L) - 1))
            mults = L[:i] + L[i + 1:]
        elif kind == "extra":
            mults = L + [draw(weights)]
        else:
            mults = draw(st.lists(weights, min_size=1, max_size=3))
        classes.append(mults or [draw(weights)])
    last = draw(st.sampled_from([[1], [1, 1], [2], []]))
    return d, r, classes + [last] if last else classes


def fits_in_removed_sets(weights, c, cap):
    """Brute force for c <= 2: some sub-multiset of the weights, and the rest,
    each weigh at most cap (for c = 1 the sub-multiset is empty)."""
    sums = {0}
    if c == 2:
        for w in weights:
            sums |= {s + w for s in sums}
    return any(s <= cap and sum(weights) - s <= cap for s in sums)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=class_cases())
def test_validators_match_the_theorem_statements(case):
    d, r, classes = case
    config = PointConfig(d, tuple(
        ColoredPoint((F(0),) * d, color, mu) for color, mults in enumerate(classes) for mu in mults
    ))

    def valid(mode, c=0):
        try:
            TverbergInstance(config, r, mode=mode, constraint_count=c)
        except InputError:
            return False
        return True

    L = Counter(multiplicity_vector(*PRIME_POWERS[r])) if r in PRIME_POWERS else None
    counts = [Counter(mults) for mults in classes]
    # Theorem 1.3 (and its lift, 1.4): classes 0..d are L, the last is [1]
    theorem_1_3 = (
        L is not None and len(classes) == d + 2
        and all(counts[i] == L for i in range(d + 1)) and classes[d + 1] == [1]
    )
    assert valid("prime-power-1.3") == valid("lifted-1.4") == theorem_1_3
    # Theorem 6.3: d + 2 classes, each within L, of total (r-1)(d+1)+1
    theorem_6_3 = (
        L is not None and len(classes) == d + 2
        and all(not count - L for count in counts)
        and sum(map(sum, classes)) == (r - 1) * (d + 1) + 1
    )
    assert valid("equal-classes-6.3") == theorem_6_3
    # Theorem 6.2: d + c + 2 classes at most, the first d + c + 1 within L
    # and the last within [1]; what they leave out packs into c removed sets
    # of weight at most r - 1
    for c in (0, 1, 2):
        theorem_6_2 = L is not None and c >= 1 and len(classes) <= d + c + 2
        if theorem_6_2:
            allowed = [L] * (d + c + 1) + [Counter([1])]
            counts_c = counts + [Counter()] * (d + c + 2 - len(classes))
            theorem_6_2 = not any(count - a for count, a in zip(counts_c, allowed)) and (
                fits_in_removed_sets(
                    [w for count, a in zip(counts_c, allowed) for w in (a - count).elements()],
                    c, r - 1,
                )
            )
        assert valid("generalized-6.2", c) == theorem_6_2


def test_equal_classes_mode_total_check():
    # r=2, d=1: total must be (r-1)(d+1)+1 = 3.
    config = pts(((0,), 0, 1), ((3,), 1, 1), (("3/2",), 2, 1), d=1)
    sol, _ = search_tverberg(TverbergInstance(config, 2, mode="equal-classes-6.3"))
    assert isinstance(sol, TverbergSolution)
    heavy = pts(((0,), 0, 2), ((3,), 1, 2), (("3/2",), 2, 1), d=1)
    with pytest.raises(InputError):
        TverbergInstance(heavy, 2, mode="equal-classes-6.3")


def test_verify_solution_rejects_tampering():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol, _ = search_tverberg(TverbergInstance(config, 2))
    wrong_witness = TverbergSolution(sol.faces, (F(1, 3),), sol.certificates)
    assert not verify_solution(config, wrong_witness)
    bad_cert = TverbergSolution(
        sol.faces, sol.witness, tuple((c[:-1] + (c[-1] + 1,)) for c in sol.certificates)
    )
    assert not verify_solution(config, bad_cert)


def test_solution_json_round_trip():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol, _ = search_tverberg(TverbergInstance(config, 2))
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
    sol, _ = search_tverberg(instance)
    assert isinstance(sol, TverbergSolution)
    assert sol.witness == (F(1), F(1))
    assert sol.policy == "shifted-k-plus-1"
    # The two diagonals themselves also cross exactly at the center.
    (witness, _), _, _ = hulls_intersect([(0, 2), (1, 3)], _grid(config))
    assert witness == (F(1), F(1))


def test_balanced_policies_disagree_generically():
    config = random_balanced_config(2, 2, seed=1)
    shifted = TverbergInstance(
        config, 2, mode="balanced-1.6", dim_caps=DimCaps(1, 0), disjointness="vertex-disjoint"
    )
    sol, _ = search_tverberg(shifted)
    assert isinstance(sol, TverbergSolution)
    assert all(len(f) <= 2 for f in sol.faces)
    literal = TverbergInstance(
        config, 2, mode="balanced-1.6",
        dim_caps=DimCaps(1, 0, policy="literal-k"), disjointness="vertex-disjoint",
    )
    assert search_tverberg(literal)[0] is None


def test_balanced_rejects_oversized_class():
    config = pts(
        ((0, 0), 0, 1), ((2, 0), 0, 1), ((2, 2), 0, 1), ((0, 2), 1, 1), ((1, 1), 2, 1),
        d=2,
    )
    with pytest.raises(InputError):
        TverbergInstance(config, 2, mode="balanced-1.6", disjointness="vertex-disjoint")


def test_example_a_on_a_segment():
    config, instance = build_example_a(2, 1, 1)
    coords = sorted(pt.coords[0] for pt in config.points)
    assert coords == [F(0), F(3, 2), F(3)]
    sol, _ = search_tverberg(instance)
    assert sol.witness == (F(3, 2),)


def test_example_a_in_the_plane():
    config, instance = build_example_a(2, 2, 2)
    sol, _ = search_tverberg(instance)
    assert sol.witness == (F(1), F(1))  # the barycenter of (0,0), (3,0), (0,3)


def test_example_a_scattered_still_solvable():
    for seed in range(3):
        config, instance = build_example_a(2, 2, 2, epsilon=F(1, 100), seed=seed)
        sol, _ = search_tverberg(instance)
        assert isinstance(sol, TverbergSolution)
        assert verify_solution(config, sol)


def test_example_a_color_cut_keeps_the_first_solution():
    # The three clustered classes weigh r - 1 = 3 each and the barycenter 1,
    # so most prefixes are closed by the color-budget cut; the first
    # solution is still the first LP, answered by the elimination.
    for seed in range(12):
        _, sol, stats = _example_a_solution(2, 2, 2, seed)
        assert sol.faces == ((6,), (0, 2, 4), (1, 3, 5), (1, 3, 5))
        assert stats["lp_calls"] == stats["lp_feasible"] == stats["lp_direct"] == 1
        assert stats["pruned_color"] > 0
        # a face gets its box row when the search first picks it before the
        # last position
        assert (stats["box_rows"], stats["rainbow_faces"]) == (9, 53)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pkd=st.sampled_from([(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 1)]),
       seed=st.integers(0, 10**6), full=st.booleans())
def test_search_finds_the_naive_first_solution_at_the_tverberg_number(pkd, seed, full):
    # "full" keeps the exceptional point, total weight (r-1)(d+1)+1, and
    # "minus" drops it, one below Tverberg's number
    p, k, d = pkd
    config = random_prime_power_config(p, k, d, seed)
    if not full:
        config = PointConfig(d, config.points[:-1])
    instance = TverbergInstance(config, p**k)
    got, _ = _search(instance)
    naive = naive_search_all(instance)
    assert (None if got is None else got.faces) == (naive[0] if naive else None)


# (p, k, d) of the tightness searches: each is run on seeds 0-4
TIGHTNESS_PKD = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 2), (2, 3, 1), (5, 1, 1),
                 (3, 2, 1), (3, 1, 3), (7, 1, 1)]


def _minus_instance(p, k, d, seed):
    """The free search on `random_prime_power_config` without its exceptional
    point: total weight (d+1)(r-1), one below Tverberg's number."""
    config = random_prime_power_config(p, k, d, seed)
    return TverbergInstance(PointConfig(d, config.points[:-1]), p**k)


def test_every_search_one_below_the_tverberg_number_exhausts():
    totals = Counter()
    for (p, k, d), seed in itertools.product(TIGHTNESS_PKD, range(5)):
        out, stats = search_tverberg(_minus_instance(p, k, d, seed))
        assert out is None, (p, k, d, seed)
        totals.update(stats)
    assert totals == {
        "rainbow_faces": 1345, "box_rows": 1345, "pruned_dim_cap": 0, "pruned_budget": 42025,
        "pruned_box": 9762, "pruned_color": 4817, "pruned_farkas": 137, "lp_calls": 138,
        "lp_feasible": 0, "lp_pivots": 1060, "lp_direct": 0,
    }


@pytest.mark.parametrize("seed, budget, box, color, farkas, lp_calls, pivots", [
    (0, 111166, 12131, 4698, 139, 166, 2475),
    (1, 97730, 12269, 4206, 128, 74, 1007),
    (2, 51898, 5948, 4230, 133, 29, 348),
])
def test_exhausted_search_counters_at_r_5_in_the_plane(seed, budget, box, color, farkas, lp_calls, pivots):
    out, stats = search_tverberg(_minus_instance(5, 1, 2, seed))
    assert out is None
    assert stats == {
        "rainbow_faces": 124, "box_rows": 124, "pruned_dim_cap": 0, "pruned_budget": budget,
        "pruned_box": box, "pruned_color": color, "pruned_farkas": farkas, "lp_calls": lp_calls,
        "lp_feasible": 0, "lp_pivots": pivots, "lp_direct": 0,
    }


def never(*args):
    raise AssertionError("computed past the guard")


def test_example_a_guard(monkeypatch):
    monkeypatch.setattr(geometry, "is_prime", never)
    # 2^(10^8) has too many digits for str(); trial division of 2^61 - 1 would not end.
    for p, k, d in [(2, 4, 1), (2, 10**8, 1), (2**61 - 1, 1, 1), (3, 3, 1), (2**61 - 1, 0, 1),
                    (2, 1, 0)]:
        with pytest.raises(InputError):
            build_example_a(p, k, d)


def test_part_cap_comes_before_the_mode_checks(monkeypatch):
    monkeypatch.setattr(geometry, "prime_power_root", never)
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    for mode in MODES:
        with pytest.raises(ResourceLimitError):
            TverbergInstance(config, 2**61 - 1, mode=mode)
        with pytest.raises(ResourceLimitError):
            TverbergInstance(config, MAX_PARTS + 1, mode=mode)
    assert TverbergInstance(config, MAX_PARTS).r == MAX_PARTS


def test_lift_produces_disjoint_faces():
    config = pts(
        ((0,), 0, 1), (("1/10",), 0, 2),
        ((1,), 1, 1), (("9/10",), 1, 2),
        (("1/2",), 2, 1),
        d=1,
    )
    sol, _ = search_tverberg(TverbergInstance(config, 4, mode="prime-power-1.3"))
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
    sol, _ = search_tverberg(TverbergInstance(config, 2))
    lifted = lift_to_vertex_disjoint(config, sol, 2)
    assert len(lifted.config.points) == len(config.points)
    assert sorted(lifted.projection.items()) == [(0, 0), (1, 1), (2, 2)]


def test_lift_rejects_wrong_class_weights():
    config = pts(((0,), 0, 1), ((1,), 1, 1), (("1/2",), 2, 1), d=1)
    sol, _ = search_tverberg(TverbergInstance(config, 2))
    with pytest.raises(InputError):
        lift_to_vertex_disjoint(config, sol, 3)


def test_random_prime_power_instances_never_exhaust():
    for p, k, d in [(2, 1, 1), (3, 1, 1), (2, 2, 1)]:
        for seed in range(3):
            config = random_prime_power_config(p, k, d, seed)
            sol, _ = search_tverberg(TverbergInstance(config, p**k, mode="prime-power-1.3"))
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
