"""The value types are NamedTuples: equality, hashing and validation.

Every value compares and hashes as the plain tuple of its fields, the
by-products of a result (elimination sizes, unavoidability counters)
included; a test that means only some fields compares those.  The types that check
their fields do so in ``__new__``.  ``_replace`` does not call ``__new__``,
so it is used only to put in a field that its own constructor checked.
``Complex`` checks nothing in ``__new__``: the package's builders put its
facets in its universe, and ``build_complex`` checks a complex read from
JSON.
"""

from fractions import Fraction

import pytest

from tverrook import (
    ChessboardSpec,
    CollapseTheta,
    ColoredPoint,
    Complex,
    DimCaps,
    FaceAvoidanceVerdict,
    HomologyProfile,
    InputError,
    PointConfig,
    ResourceLimitError,
    RowPermutation,
    TverbergInstance,
    TverbergSolution,
    UnavoidabilityVerdict,
    build_complex,
)

SOLUTION = (((0, 1), (2,)), (Fraction(1),), ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)))

# (value, the same value with another last field, a value that differs before it)
RESULTS = [
    (HomologyProfile((0, 1), ((), ())), HomologyProfile((0, 1), ((), ()), ({"q": 0},)),
     HomologyProfile((0, 2), ((), ()))),
    (TverbergSolution(*SOLUTION), TverbergSolution(*SOLUTION, "literal-k"),
     TverbergSolution(SOLUTION[0], (Fraction(2),), SOLUTION[2])),
    (UnavoidabilityVerdict(True), UnavoidabilityVerdict(True, None, {"minimal_non_faces": 1}),
     UnavoidabilityVerdict(False)),
    (FaceAvoidanceVerdict(1, True, True), FaceAvoidanceVerdict(1, True, True, None, {"x": 1}),
     FaceAvoidanceVerdict(2, True, True)),
]


@pytest.mark.parametrize("value, other_stats, different", RESULTS,
                         ids=[type(v).__name__ for v, _, _ in RESULTS])
def test_results_compare_as_plain_tuples(value, other_stats, different):
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    assert value != other_stats and value[:-1] == other_stats[:-1]
    assert value != different


POINTS = (ColoredPoint((Fraction(0),), 0, 1), ColoredPoint((Fraction(1),), 1, 1))
CONFIG = PointConfig(1, POINTS)


@pytest.mark.parametrize("make, error", [
    (lambda: ChessboardSpec(2, 1, (1,)), InputError),
    (lambda: ChessboardSpec(m=1, n=1, col_caps=(True,)), InputError),
    (lambda: RowPermutation((1, 1)), InputError),
    # a complex is checked where it comes in from JSON, by build_complex
    (lambda: build_complex([0], [[0, 1]]), InputError),
    (lambda: CollapseTheta(2, 2, (1, 1)), InputError),
    (lambda: PointConfig(1, POINTS[1:]), InputError),
    (lambda: PointConfig(d=0, points=POINTS), InputError),
    (lambda: DimCaps(1, -1), InputError),
    (lambda: DimCaps(1, 0, policy="bogus"), InputError),
    (lambda: TverbergInstance(CONFIG, 1), InputError),
    (lambda: TverbergInstance(CONFIG, 2, disjointness="bogus"), InputError),
    (lambda: TverbergInstance(CONFIG, 65), ResourceLimitError),
], ids=["spec-caps", "spec-bool", "permutation", "complex", "theta", "colours", "dimension",
        "dim-caps", "policy", "parts", "disjointness", "depth"])
def test_checked_types_check_in_their_constructor(make, error):
    with pytest.raises(error):
        make()


def test_checked_types_keep_their_defaults_and_methods():
    instance = TverbergInstance(CONFIG, 2)
    assert (instance.mode, instance.dim_caps, instance.disjointness, instance.constraint_count) == (
        "free", None, "multiset-proper", 0
    )
    assert DimCaps(1, 0).max_dim == 2 and DimCaps(1, 0, "literal-k").max_dim == 1
    assert instance._replace(dim_caps=DimCaps(1, 0)).dim_caps == DimCaps(1, 0)
    assert type(instance._replace(r=3)) is TverbergInstance
    assert RowPermutation((2, 1)).mapping == (2, 1)
    assert Complex(frozenset({0, 1}), ((0, 1),)).dimension == 1
