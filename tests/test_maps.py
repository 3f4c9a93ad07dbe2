import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gaussian_binomial,
    omitted_row,
    regular_action_subgroup,
    scan_preimage,
    scan_preimage_signs,
    span_subspaces,
)
from tverrook import chessboard, maps

from tverrook import (
    CollapseTheta,
    InputError,
    RowPermutation,
    ResourceLimitError,
    Subgroup,
    build_chessboard,
    collapse_complex,
    degree_by_counting,
    degree_formula,
    elementary_abelian_subgroups,
    fixed_subcomplex,
    legendre_valuation,
    multiplicity_vector,
    obstruction_report,
    one_row_spec,
    sphere_spec,
    standard_spec,
)
from tverrook.chessboard import MAX_FACETS
from tverrook.maps import preimage, preimage_signs

# Every (p, k) with p^k <= MAX_OBSTRUCTION_ORDER = 16; the fixed subcomplexes
# of the first seven can be enumerated, those of the last three cannot.
ENUMERABLE_PK = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
IN_GUARD_PK = ENUMERABLE_PK + [(2, 4), (11, 1), (13, 1)]


def test_theta_must_be_surjective():
    with pytest.raises(InputError):
        CollapseTheta(3, 2, (1, 1, 1))
    with pytest.raises(InputError):
        CollapseTheta(2, 2, (1, 1, 2))


def test_collapse_caps_sum_over_fibers():
    theta = CollapseTheta(3, 2, (1, 2, 1))
    assert theta.collapse_caps((1, 2, 4)) == (5, 2)


def test_constant_collapse_targets_simplex_boundary():
    spec = one_row_spec((1, 2))
    result = collapse_complex(CollapseTheta.constant(2), spec)
    assert result.target_spec == sphere_spec(4)
    # Every facet image must be a target facet (non-degenerate map).
    target = build_chessboard(result.target_spec)
    assert set(result.facet_map.values()) <= set(target.facets)


def test_identity_collapse_is_identity():
    spec = one_row_spec((1, 2))
    result = collapse_complex(CollapseTheta.identity(2), spec)
    assert result.target_spec == spec
    assert all(v == w for v, w in result.vertex_map.items())


def test_collapse_of_standard_board():
    result = collapse_complex(CollapseTheta(3, 2, (1, 1, 2)), standard_spec(3, 4))
    assert result.target_spec.col_caps == (2, 1)
    assert result.target_spec.n == 4


def test_functoriality_of_composition():
    spec = standard_spec(3, 4)
    theta1 = CollapseTheta(3, 2, (1, 1, 2))
    theta2 = CollapseTheta.constant(2)
    composed = theta2.compose(theta1)
    step1 = collapse_complex(theta1, spec)
    step2 = collapse_complex(theta2, step1.target_spec)
    direct = collapse_complex(composed, spec)
    assert direct.target_spec == step2.target_spec
    for v, w in direct.vertex_map.items():
        assert step2.vertex_map[step1.vertex_map[v]] == w


def test_degrees_multiply_along_composition():
    caps = (1, 1, 1)
    theta1 = CollapseTheta(3, 2, (1, 1, 2))
    theta2 = CollapseTheta.constant(2)
    d1 = degree_formula(caps, theta1)
    d2 = degree_formula(theta1.collapse_caps(caps), theta2)
    assert degree_formula(caps, theta2.compose(theta1)) == d1 * d2


def test_degree_formula_examples():
    assert degree_formula((1, 2), CollapseTheta.constant(2)) == 3
    assert degree_formula((1, 2, 4), CollapseTheta.constant(3)) == 105
    # All-ones source: degree is the product of target cap factorials.
    assert degree_formula((1, 1, 1), CollapseTheta(3, 2, (1, 1, 2))) == 2
    assert degree_formula((1, 1), CollapseTheta.constant(2)) == 2


def test_degree_by_counting_examples():
    assert degree_by_counting(CollapseTheta.constant(2), one_row_spec((1, 2))) == 3
    assert degree_by_counting(CollapseTheta.identity(2), one_row_spec((1, 2))) == 1
    assert degree_by_counting(CollapseTheta.constant(2), standard_spec(2, 3)) == 2


def test_preimage_signs_all_positive():
    signs = preimage_signs(CollapseTheta.constant(2), one_row_spec((1, 2)))
    assert signs == [1, 1, 1]


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def all_surjections(m_source, m_target):
    for assignment in itertools.product(range(1, m_target + 1), repeat=m_source):
        if set(assignment) == set(range(1, m_target + 1)):
            yield CollapseTheta(m_source, m_target, assignment)


def test_degree_oracle_equivalence_exhaustive_small():
    # Every collapse map between pseudomanifold-family specs with n <= 5.
    for n in range(2, 6):
        for caps in compositions(n - 1):
            spec = one_row_spec(caps)
            for m_target in range(1, len(caps) + 1):
                for theta in all_surjections(len(caps), m_target):
                    assert degree_formula(caps, theta) == degree_by_counting(theta, spec)


def criterion_03_cases():
    """The (caps, theta) pairs of acceptance criterion 03."""
    for n in range(2, 7):
        for caps in compositions(n - 1):
            for m_target in range(1, len(caps) + 1):
                for theta in all_surjections(len(caps), m_target):
                    yield caps, theta
    for n in (7, 8):
        for caps in compositions(n - 1):
            yield (1,) * (n - 1), CollapseTheta.blocks(caps)
            yield caps, CollapseTheta.constant(len(caps))


def test_preimage_signs_match_the_scan_on_criterion_03():
    for caps, theta in criterion_03_cases():
        spec = one_row_spec(caps)
        assert sorted(preimage_signs(theta, spec)) == sorted(scan_preimage_signs(theta, spec))


@st.composite
def collapse_cases(draw):
    n = draw(st.integers(2, 7))
    cut = draw(st.sets(st.integers(1, n - 2), max_size=n - 2)) if n > 2 else set()
    bounds = [0, *sorted(cut), n - 1]
    caps = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    m_target = draw(st.integers(1, len(caps)))
    image = draw(st.permutations(range(1, m_target + 1)))
    rest = draw(st.lists(st.integers(1, m_target), min_size=len(caps) - m_target,
                         max_size=len(caps) - m_target))
    assignment = draw(st.permutations(list(image) + rest))
    return caps, CollapseTheta(len(caps), m_target, tuple(assignment))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=collapse_cases())
def test_random_preimage_signs_match_the_scan(case):
    caps, theta = case
    spec = one_row_spec(caps)
    assert sorted(preimage_signs(theta, spec)) == sorted(scan_preimage_signs(theta, spec))


@pytest.mark.parametrize(
    "caps, assignment", [((0,), (1,)), ((0, 1), (1, 1)), ((2, 0, 1), (1, 2, 1)), ((1, 0), (1, 2))]
)
def test_zero_capacity_columns_match_the_scan(caps, assignment):
    theta = CollapseTheta(len(caps), max(assignment), assignment)
    spec = one_row_spec(caps)
    assert sorted(preimage_signs(theta, spec)) == sorted(scan_preimage_signs(theta, spec))
    assert sum(preimage_signs(theta, spec)) == degree_formula(caps, theta)


def test_preimage_signs_follow_the_omitted_row():
    # Over a target facet that omits row w, every source facet omits w too
    # and carries the orientation sign (-1)**(w-1): -1 for even w.
    caps, theta = (1, 2, 1), CollapseTheta(3, 2, (1, 2, 1))
    source = one_row_spec(caps)
    target = one_row_spec(theta.collapse_caps(caps))
    seen = set()
    for target_facet in build_chessboard(target).facets:
        w = omitted_row(target, target_facet)
        over = preimage(theta, source, target_facet)
        assert over == scan_preimage(theta, source, target_facet)
        assert len(over) == degree_formula(caps, theta)
        assert set(over.values()) == {(-1) ** (w - 1)}
        seen.add(w % 2)
    assert seen == {0, 1}


def test_preimage_of_a_non_facet_is_empty():
    theta, source = CollapseTheta.constant(2), one_row_spec((1, 2))
    assert preimage(theta, source, (0, 1)) == {}
    assert preimage(theta, source, (0, 1, 2, 3)) == {}


def test_preimage_size_guard_raises_before_enumerating(monkeypatch):
    def enumerate_preimage(*args):
        raise AssertionError("the preimage was enumerated")

    monkeypatch.setattr(maps, "preimage", enumerate_preimage)
    ones = one_row_spec((1,) * 9)
    assert degree_formula(ones.col_caps, CollapseTheta.constant(9)) > MAX_FACETS
    with pytest.raises(ResourceLimitError):
        preimage_signs(CollapseTheta.constant(9), ones)


def test_equivariance_of_collapse():
    # Collapsing then permuting rows equals permuting rows then collapsing.
    spec = one_row_spec((1, 2))
    result = collapse_complex(CollapseTheta.constant(2), spec)
    tgt = result.target_spec
    for perm in itertools.permutations(range(1, 5)):
        g = RowPermutation(perm)
        for v in range(spec.m * spec.n):
            col, row = spec.cell_coords(v)
            acted_then_mapped = result.vertex_map[spec.cell(col, g(row))]
            tcol, trow = tgt.cell_coords(result.vertex_map[v])
            mapped_then_acted = tgt.cell(tcol, g(trow))
            assert acted_then_mapped == mapped_then_acted


def test_legendre_valuation_values():
    assert legendre_valuation(2, 8) == 7
    assert legendre_valuation(3, 3) == 1
    assert legendre_valuation(5, 5) == 1
    assert legendre_valuation(2, 3) == 1
    assert legendre_valuation(2, 0) == 0


def test_legendre_rejects_composite():
    with pytest.raises(InputError):
        legendre_valuation(4, 10)


def test_valuation_identity_for_prime_powers():
    for p in (2, 3, 5):
        for k in range(1, 5):
            lhs = legendre_valuation(p, p**k - 1)
            rhs = legendre_valuation(p, p**k) - k
            assert lhs == rhs == sum(p**i for i in range(k)) - k


def test_valuation_matches_direct_factorization():
    for p in (2, 3, 5):
        for m in range(0, 30):
            f = math.factorial(m)
            direct = 0
            while f % p == 0:
                f //= p
                direct += 1
            assert legendre_valuation(p, m) == direct


def test_multiplicity_vector():
    assert multiplicity_vector(2, 2) == (1, 2)
    assert multiplicity_vector(3, 2) == (1, 3, 1, 3)
    assert multiplicity_vector(2, 3) == (1, 2, 4)


def test_subgroup_count_is_gaussian():
    for p, k in IN_GUARD_PK:
        subs = elementary_abelian_subgroups(p, k)
        expected = sum(gaussian_binomial(k, h, p) for h in range(k + 1))
        assert len(subs) == expected


def test_rref_subspaces_match_the_span_oracle():
    for p, k in IN_GUARD_PK:
        assert elementary_abelian_subgroups(p, k) == span_subspaces(p, k)


def test_regular_action_is_fixed_point_free():
    for p, k in IN_GUARD_PK:
        identity = RowPermutation.identity(p**k)
        for subspace in elementary_abelian_subgroups(p, k):
            H = regular_action_subgroup(p, k, subspace)
            assert H.order == len(subspace)
            assert all(len(orbit) == H.order for orbit in H.orbits)
            for g in H.elements:
                if g != identity:
                    assert all(g(i) != i for i in range(1, p**k + 1))


def test_obstruction_degrees():
    rep = obstruction_report(2, 2, 1)
    assert rep.degree == 3 and rep.degree_mod_p == 1
    rep = obstruction_report(2, 3, 1)
    assert rep.degree == 105 and rep.degree_mod_p == 1
    rep = obstruction_report(3, 1, 1)
    assert rep.degree == 2 and rep.degree_mod_p == 2


def test_obstruction_full_verdicts():
    for p, k in IN_GUARD_PK:
        rep = obstruction_report(p, k, 1)
        assert rep.verdict
        assert rep.degree % p != 0
        # Subgroup list covers every subspace of F_p^k.
        assert len(rep.subgroup_results) == len(elementary_abelian_subgroups(p, k))


def test_obstruction_guard(monkeypatch):
    def never(*args):
        raise AssertionError("computed past the guard")

    for name in ("is_prime", "elementary_abelian_subgroups", "degree_formula"):
        monkeypatch.setattr(maps, name, never)
    # 2^61 - 1 is prime; trial division up to its square root would not end.
    for p, k in [(2, 5), (17, 1), (3, 3), (2, 10**9), (2**61 - 1, 1)]:
        with pytest.raises(ResourceLimitError):
            obstruction_report(p, k, 1)


def test_closed_form_fixed_dimensions_match_fixed_subcomplexes():
    for p, k in ENUMERABLE_PK:
        source = one_row_spec(multiplicity_vector(p, k))
        target = sphere_spec(p**k)
        rep = obstruction_report(p, k, 1)
        subspaces = elementary_abelian_subgroups(p, k)
        assert len(rep.subgroup_results) == len(subspaces)
        for subspace, result in zip(subspaces, rep.subgroup_results):
            H = regular_action_subgroup(p, k, subspace)
            assert result.order == H.order
            assert result.dim_fixed_source == fixed_subcomplex(source, H).dimension
            assert result.dim_fixed_target == fixed_subcomplex(target, H).dimension


def test_obstruction_builds_no_fixed_subcomplex(monkeypatch):
    def never(*args):
        raise AssertionError("enumerated facets")

    for name in ("_maximal_placements", "fixed_subcomplex", "build_chessboard"):
        monkeypatch.setattr(chessboard, name, never)
    monkeypatch.setattr(maps, "build_chessboard", never)
    monkeypatch.setattr(Subgroup, "from_generators", never)
    rep = obstruction_report(2, 4, 1)
    assert rep.verdict and len(rep.subgroup_results) == 67


def test_fixed_dimension_inequality_drives_report():
    for p, k in [(2, 1), (2, 2), (3, 1)]:
        r = p**k
        source = one_row_spec(multiplicity_vector(p, k))
        target = sphere_spec(r)
        for subspace in elementary_abelian_subgroups(p, k):
            H = regular_action_subgroup(p, k, subspace)
            assert fixed_subcomplex(source, H).dimension <= fixed_subcomplex(target, H).dimension
