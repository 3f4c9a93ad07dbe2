"""Acceptance gate: one test per acceptance criterion, tolerances pinned.

Every criterion is exact-arithmetic; the only tolerances are the wall-clock
budgets asserted below.  Run with `pytest -v tests/test_acceptance.py` to get
one pass/fail line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from fixtures import counted_signs, random_balanced_config, random_prime_power_config, standard_spec
from oracles import (
    constant_theta,
    degree_formula,
    gaussian_binomial,
    join,
    naive_search_all,
    regular_action_subgroup,
    search_tverberg_all,
    span_subspaces,
)
from tverrook import (
    CollapseTheta,
    ColoredPoint,
    DimCaps,
    Multiset,
    PointConfig,
    TverbergInstance,
    TverbergSolution,
    betti_and_torsion,
    build_chessboard,
    build_example_a,
    check_face_avoidance_unavoidable,
    check_pseudomanifold,
    elementary_abelian_subgroups,
    fixed_subcomplex,
    homological_connectivity,
    legendre_valuation,
    lift_to_vertex_disjoint,
    multiplicity_vector,
    obstruction_report,
    one_row_spec,
    search_tverberg,
    sphere_spec,
    verify_solution,
)


F = Fraction


class budget:
    """Context manager asserting a wall-clock limit (seconds)."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, f"{elapsed:.1f}s exceeded the {self.seconds}s budget"


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_criterion_01_chessboard_identifications():
    # Reduced Betti numbers: the 2x3 board is a circle, the 3x4 board a torus.
    with budget(5):
        circle = betti_and_torsion(build_chessboard(standard_spec(2, 3)))
        assert list(circle.betti) == [0, 1]
        assert all(t == () for t in circle.torsion)
        torus = betti_and_torsion(build_chessboard(standard_spec(3, 4)))
        assert list(torus.betti) == [0, 2, 1]
        assert all(t == () for t in torus.torsion)


def test_criterion_02_pseudomanifold_suite():
    # Every column-cap composition with sum(L) + 1 = n <= 8 is a pseudomanifold;
    # the perturbed spec with n = sum(L) is refuted with an explicit ridge.
    with budget(60):
        for n in range(2, 9):
            for caps in compositions(n - 1):
                rep = check_pseudomanifold(build_chessboard(one_row_spec(caps)))
                assert rep.pure, (n, caps)
                assert rep.ridge_degrees_ok, (n, caps)
                assert rep.strongly_connected, (n, caps)
        perturbed = check_pseudomanifold(build_chessboard(one_row_spec((1, 2), n=3)))
        assert not perturbed.ridge_degrees_ok
        assert perturbed.offending_faces  # explicit offending ridge reported


def test_criterion_03_degree_oracle_equivalence():
    # Counting preimages with signs equals the factorial-ratio formula:
    # exhaustively over all collapse maps for n <= 6, and over the canonical
    # collapse chain (all-ones -> L -> simplex boundary) for n = 7, 8, which
    # covers the all-ones-source degree product case at full scale.
    def surjections(m_source, m_target):
        for a in itertools.product(range(1, m_target + 1), repeat=m_source):
            if set(a) == set(range(1, m_target + 1)):
                yield CollapseTheta(m_source, m_target, a)

    for n in range(2, 7):
        for caps in compositions(n - 1):
            spec = one_row_spec(caps)
            for m_target in range(1, len(caps) + 1):
                for theta in surjections(len(caps), m_target):
                    assert degree_formula(caps, theta) == sum(counted_signs(theta, spec))
    for n in (7, 8):
        ones = (1,) * (n - 1)
        ones_spec = one_row_spec(ones)
        for caps in compositions(n - 1):
            fibers = tuple(i for i, a in enumerate(caps, start=1) for _ in range(a))
            blocks = CollapseTheta(n - 1, len(caps), fibers)
            assert degree_formula(ones, blocks) == sum(counted_signs(blocks, ones_spec))
            constant = constant_theta(len(caps))
            spec = one_row_spec(caps)
            assert degree_formula(caps, constant) == sum(counted_signs(constant, spec))


def test_criterion_04_mod_p_obstruction():
    with budget(5):
        expected_degree = {(2, 2): 3, (2, 3): 105}
        for p, k in [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
            caps = multiplicity_vector(p, k)
            degree = degree_formula(caps, constant_theta(len(caps)))
            if (p, k) in expected_degree:
                assert degree == expected_degree[(p, k)]
            assert degree % p != 0
            # Valuation identity: ord_p((p^k - 1)!) = p^(k-1) + ... + 1 - k.
            assert legendre_valuation(p, p**k - 1) == sum(p**i for i in range(k)) - k
            assert legendre_valuation(p, p**k - 1) == legendre_valuation(p, p**k) - k


def test_criterion_05_fixed_point_dimension_inequality():
    with budget(30):
        # Every r = p^k <= 16.  The fixed subcomplexes are enumerated where
        # they fit under MAX_FACETS; the report's closed form covers all ten.
        enumerable = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
        for p, k in enumerable + [(2, 4), (11, 1), (13, 1)]:
            subspaces = elementary_abelian_subgroups(p, k)
            assert subspaces == span_subspaces(p, k)
            assert len(subspaces) == sum(gaussian_binomial(k, h, p) for h in range(k + 1))
            report = obstruction_report(p, k, 1)
            assert report.verdict
            assert all(s.dim_fixed_source <= s.dim_fixed_target for s in report.subgroup_results)
            if (p, k) not in enumerable:
                continue
            chessboard = one_row_spec(multiplicity_vector(p, k))
            sphere = sphere_spec(p**k)
            for subspace in subspaces:
                H = regular_action_subgroup(p, k, subspace)
                dim_board = fixed_subcomplex(chessboard, H).dimension
                dim_sphere = fixed_subcomplex(sphere, H).dimension
                assert dim_board <= dim_sphere, (p, k, subspace)


def test_criterion_06_connectivity_bookkeeping():
    with budget(60):
        # Chessboard complexes on r x m boards are homologically (m-2)-connected.
        assert homological_connectivity(build_chessboard(standard_spec(2, 3)), 0)
        assert homological_connectivity(build_chessboard(standard_spec(3, 5)), 1)
        # Join connectivity: sum(m_i - 2) + 2(t - 1) with m = (2, 1), t = 2.
        K1 = build_chessboard(standard_spec(2, 3))
        K2 = build_chessboard(standard_spec(1, 3))
        J, _ = join(K1, K2)
        assert homological_connectivity(J, 1)


def test_criterion_07_prime_power_desk_scale():
    with budget(1800):
        for p, k, d in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)]:
            r = p**k
            for seed in range(100):
                config = random_prime_power_config(p, k, d, seed)
                with budget(10):
                    sol, _ = search_tverberg(TverbergInstance(config, r, mode="prime-power-1.3"))
                assert isinstance(sol, TverbergSolution), (p, k, d, seed)
                assert verify_solution(config, sol)


def test_criterion_08_example_a():
    # Exact clusters force the witness to be the barycenter; epsilon-scattered
    # clusters remain solvable.
    config, instance = build_example_a(2, 2, 2)
    sol, _ = search_tverberg(instance)
    assert sol.witness == (F(1), F(1))  # barycenter of (0,0), (3,0), (0,3)
    for seed in range(20):
        config, instance = build_example_a(2, 2, 2, epsilon=F(1, 100), seed=seed)
        sol, _ = search_tverberg(instance)
        assert isinstance(sol, TverbergSolution), seed
        assert verify_solution(config, sol)


def test_criterion_09_lift_to_vertex_disjoint():
    # Every (2,2,1) solution lifts to 4 pairwise disjoint faces, same witness.
    for seed in range(100):
        config = random_prime_power_config(2, 2, 1, seed)
        sol, _ = search_tverberg(TverbergInstance(config, 4, mode="prime-power-1.3"))
        assert isinstance(sol, TverbergSolution)
        lifted = lift_to_vertex_disjoint(config, sol, 4)
        assert len(lifted.solution.faces) == 4
        assert lifted.solution.witness == sol.witness
        seen = set()
        for f in lifted.solution.faces:
            assert not seen & set(f), seed
            seen.update(f)
        projected = sorted(
            tuple(sorted({lifted.projection[v] for v in f})) for f in lifted.solution.faces
        )
        assert projected == sorted(sol.faces)
        assert verify_solution(lifted.config, lifted.solution)


def _admissible_removals(weights, limit):
    verts = range(len(weights))
    for size in range(len(weights) + 1):
        for S in itertools.combinations(verts, size):
            if sum(weights[v] for v in S) <= limit:
                yield S


def _constrained_config(weights, colors, S, seed):
    rng = random.Random(seed)
    keep = [v for v in range(len(weights)) if v not in S]
    relabel = {c: i for i, c in enumerate(sorted({colors[v] for v in keep}))}
    points = tuple(
        ColoredPoint(
            (Fraction(rng.randint(-1000, 1000), rng.randint(1, 20)),),
            relabel[colors[v]],
            weights[v],
        )
        for v in keep
    )
    return PointConfig(1, points)


def test_criterion_10_constraint_pipeline():
    # (p,k,d,c) = (2,2,1,1): the enlarged multiset L + L + L + [1] minus any
    # removal set of weight <= r-1 = 3 still yields solvable instances, and
    # the face-avoidance complexes are exhaustively unavoidable.
    with budget(1800):
        weights = [1, 2, 1, 2, 1, 2, 1]
        colors = [0, 0, 1, 1, 2, 2, 3]
        r = 4
        V = Multiset.from_dict(dict(enumerate(weights)))
        removals = list(_admissible_removals(weights, r - 1))
        assert len(removals) == 30
        for S in removals:
            verdict = check_face_avoidance_unavoidable(V, S, r)
            assert verdict.hypothesis_holds and verdict.unavoidable, S
            for seed in range(25):
                config = _constrained_config(weights, colors, S, seed)
                sol, _ = search_tverberg(
                    TverbergInstance(config, r, mode="generalized-6.2", constraint_count=1)
                )
                assert isinstance(sol, TverbergSolution), (S, seed)
                assert verify_solution(config, sol)


def test_criterion_11_balanced_policies():
    # r=2, d=2, generic 5-point configurations: the shifted policy always
    # finds two disjoint crossing edges; the literal policy always exhausts.
    with budget(300):
        for seed in range(100):
            config = random_balanced_config(2, 2, seed)
            shifted, _ = search_tverberg(
                TverbergInstance(
                    config, 2, mode="balanced-1.6",
                    dim_caps=DimCaps(1, 0), disjointness="vertex-disjoint",
                )
            )
            assert isinstance(shifted, TverbergSolution), seed
            assert shifted.policy == "shifted-k-plus-1"
            # Generic points rule out vertex-vertex and vertex-edge hits,
            # so the solution is a pair of crossing edges.
            assert sorted(len(f) for f in shifted.faces) == [2, 2], seed
            assert not set(shifted.faces[0]) & set(shifted.faces[1])
            assert verify_solution(config, shifted)
            literal, _ = search_tverberg(
                TverbergInstance(
                    config, 2, mode="balanced-1.6",
                    dim_caps=DimCaps(1, 0, policy="literal-k"),
                    disjointness="vertex-disjoint",
                )
            )
            assert literal is None, seed


def _random_small_instance(seed):
    rng = random.Random(seed)
    d = rng.choice([1, 2])
    r = rng.choice([2, 3])
    n = rng.randint(3, 6 if r == 2 else 5)
    num_colors = rng.randint(2, n)
    colors = sorted(rng.choices(range(num_colors), k=n - num_colors)) + list(range(num_colors))
    colors = sorted(colors)
    points = tuple(
        ColoredPoint(
            tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(d)),
            colors[i],
            rng.randint(1, 2),
        )
        for i in range(n)
    )
    disjointness = rng.choice(["multiset-proper", "vertex-disjoint"])
    return TverbergInstance(PointConfig(d, points), r, disjointness=disjointness)


def test_criterion_12_search_oracle_equivalence():
    # The pruned search, face at a time, and the naive unpruned enumerator
    # agree on the full solution set, and the search finds the enumerator's
    # first solution (hence they agree on found/exhausted), across a seeded
    # corpus of instances with <= 6 points and r <= 3.
    with budget(600):
        for seed in range(40):
            instance = _random_small_instance(seed)
            naive = naive_search_all(instance)
            assert sorted(search_tverberg_all(instance)) == sorted(naive), seed
            first, _ = search_tverberg(instance)
            assert (None if first is None else first.faces) == (naive[0] if naive else None), seed
