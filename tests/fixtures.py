"""Boards and seeded point configurations that the tests build their cases from."""

import itertools
import random
from fractions import Fraction

from tverrook import ChessboardSpec, ColoredPoint, PointConfig, multiplicity_vector
from tverrook.maps import preimage_signs


def counted_signs(theta, source):
    """The signs of `preimage_signs`, without the target caps and the formula's degree."""
    _, _, signs = preimage_signs(theta, source)
    return signs


def standard_spec(m, n):
    """The standard chessboard complex M(m, n): all column capacities 1."""
    return ChessboardSpec(m, n, (1,) * m)


def _coord(rng):
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))


def random_prime_power_config(p, k, d, seed):
    """Seeded random rational configuration satisfying the prime-power hypotheses."""
    rng = random.Random(seed)
    points = [
        ColoredPoint(tuple(_coord(rng) for _ in range(d)), color, mu)
        for color in range(d + 1)
        for mu in multiplicity_vector(p, k)
    ]
    points.append(ColoredPoint(tuple(_coord(rng) for _ in range(d)), d + 1, 1))
    return PointConfig(d, tuple(points))


def random_balanced_config(r, d, seed):
    """Seeded generic configuration for the balanced search: singleton colors.

    Genericity (no repeated points, no d+1 affinely dependent points for
    d = 2) is enforced by rejection resampling.
    """
    rng = random.Random(seed)
    n = (r - 1) * (d + 2) + 1
    while True:
        coords = [tuple(_coord(rng) for _ in range(d)) for _ in range(n)]
        if len(set(coords)) == n and not (d == 2 and _has_collinear_triple(coords)):
            return PointConfig(d, tuple(ColoredPoint(c, i, 1) for i, c in enumerate(coords)))


def _has_collinear_triple(coords):
    return any(
        (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
        for a, b, c in itertools.combinations(coords, 3)
    )
