"""Exact-rational colored point configurations and Tverberg partition search.

Points live in Q^d with color labels and multiplicities.  `Fraction`s are
the JSON boundary and the LP's output; the search itself runs on one
integer grid (`_grid`): every coordinate is multiplied by L, the lcm of all
coordinate denominators.  The search enumerates tuples of rainbow faces
within the multiplicity budget and certifies hull intersections by exact
linear programming on integer rows built from the grid: one fraction-free
elimination when the rows' columns are independent and it gives a point
>= 0, the simplex otherwise.  Every returned witness carries per-face
convex coefficients that are re-checked by direct substitution in integers
of the check's own, independently of the LP.

Before the LP, the search prunes by boxes on the grid: each grid point is
projected onto the d^2 integer directions e_i, e_i + e_j and e_i - e_j
(i < j).  A face's box is the interval of its projections on each
direction.  Faces whose hulls share a point x have boxes that all contain
<L x, u> on every direction u, so a tuple whose boxes miss on some
direction is infeasible, and that direction separates two of its faces.

At the LP, the search cuts by Farkas vectors.  An infeasible LP returns a
vector z with z^T A >= 0 and z^T b < 0, checked in integers on its own
rows.  Those rows' right-hand side is the same for every r-tuple, so z
proves infeasible every tuple whose columns it keeps >= 0: per position,
the faces none of whose points gives a negative column (`_farkas_cover`).
A full tuple that a kept vector covers at every position skips its LP.

After the boxes and before the LP, the search closes prefixes by color
budgets.  A rainbow face holds at most one point of each color class, so
every face that holds one spends a unit of the class's multiplicity
budget (in Theorem 1.3's abridged simplex a class weighs at most r - 1).
A prefix of depth t whose remaining faces all hold a point of a class
with less than r - t budget left has no full extension, and it is closed
without visiting them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
import re
import sys
from array import array
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, ResourceLimitError, json_int, shown
from .exactlp import solve_equality_feasibility, unique_solution
from .maps import is_prime, multiplicity_vector, power_exceeds

MODES = (
    "prime-power-1.3",
    "lifted-1.4",
    "generalized-6.2",
    "equal-classes-6.3",
    "balanced-1.6",
    "free",
)

# The search recurses once per part but the last, r - 1 levels deep, so r is
# capped well below Python's recursion limit.  Checked when an instance is
# made, before the mode checks (prime_power_root is linear in r).
MAX_PARTS = 64

# Largest p^k of Example A.
MAX_EXAMPLE_ORDER = 9

# The search holds at most one F-bit box row per rainbow face, built when it
# first picks the face (`_meet_masks`), F^2 / 8 bytes in all: 8 MiB at this
# cap, besides the chains the rows are read from (`MAX_CHAIN_BITS`).  With
# every row built, 65 535 faces took a peak of 1.57 GB.
MAX_RAINBOW_FACES = 1 << 13

# The box set-up works on d^2 directions per point (`_grid_projections`,
# `_meet_masks`), and each box row the search builds ANDs 2 d^2 F-bit masks:
# d^2 (points + faces) is capped.  On a 2-core host, 3 one-point colours
# took 1.5 s at d = 600 (3.6 M, with the cap lifted) and 0.46 s at d = 323,
# just under it; Example A's largest input under the face cap, p = 2, k = 1,
# d = 11 (992 684), answers in 0.03 s with 13 box rows.
MAX_BOX_WORK = 1 << 20

# The prefix and suffix ORs that `_meet_masks` reads box rows from keep an
# entry every step-th rank, step chosen so that they hold at most this many
# bits (16 MiB) plus 2 d^2 F.  An entry per rank takes 2 d^2 m F bits for m
# distinct projections: about 1 GB on one color class of 8191 points at
# d = 8, which passes both guards.  A row then ORs up to 2 (step - 1) d^2
# more masks: that class, which builds all its rows, takes about 11 s at
# step 64, where building every row before the search took 1.7 s.
MAX_CHAIN_BITS = 1 << 27

POLICY_SHIFTED = "shifted-k-plus-1"
POLICY_LITERAL = "literal-k"


# The canonical forms of a rational: an integer, or "p/q".
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """An int or a canonical "p/q" string as an exact rational; any other form,
    q = 0 or a part of more digits than `int` converts is an InputError.  The
    form is checked first: `Fraction` would read "1e-99999999" as well."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InputError(f"malformed rational {shown(text)}: expected an integer or \"p/q\"")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {shown(text)}: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """"p/q", or "p" for an integer; ResourceLimitError if a part has more
    digits than `str` prints of an int (`sys.get_int_max_str_digits()`)."""
    try:
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"a rational part of more than {limit} digits") from exc


class ColoredPoint(NamedTuple):
    coords: tuple
    color: int
    multiplicity: int


class _PointConfigFields(NamedTuple):
    d: int
    points: tuple


class PointConfig(_PointConfigFields):
    """Exact-rational points with contiguous color labels and multiplicities."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.d < 1:
            raise InputError("ambient dimension must be positive")
        colors = sorted({pt.color for pt in self.points})
        if colors != list(range(len(colors))):
            raise InputError(f"colors must form a contiguous label set 0..t-1, got {colors}")
        for pt in self.points:
            if len(pt.coords) != self.d:
                raise InputError("point dimension mismatch")
            if pt.multiplicity < 1:
                raise InputError("multiplicities must be >= 1")
        return self

    @property
    def num_colors(self) -> int:
        return max((pt.color for pt in self.points), default=-1) + 1

    def color_class(self, color: int) -> tuple:
        return tuple(i for i, pt in enumerate(self.points) if pt.color == color)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "points": [
                {
                    "coords": [format_rational(c) for c in pt.coords],
                    "color": pt.color,
                    "multiplicity": pt.multiplicity,
                }
                for pt in self.points
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointConfig":
        try:
            points = tuple(
                ColoredPoint(
                    tuple(parse_rational(c) for c in pt["coords"]),
                    json_int(pt["color"], "point color"),
                    json_int(pt.get("multiplicity", 1), "point multiplicity"),
                )
                for pt in data["points"]
            )
            return cls(json_int(data["d"], "ambient dimension d"), points)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed point config JSON: {exc}") from exc


class _DimCapsFields(NamedTuple):
    k: int
    s: int
    policy: str = POLICY_SHIFTED


class DimCaps(_DimCapsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.policy not in (POLICY_SHIFTED, POLICY_LITERAL):
            raise InputError(f"unknown dimension-cap policy {self.policy!r}")
        if self.k < 0 or self.s < 0:
            raise InputError(f"dimension caps must be non-negative, got k = {self.k}, s = {self.s}")
        return self

    @property
    def max_dim(self) -> int:
        """Largest face dimension allowed; at most s faces may have it."""
        return self.k + 1 if self.policy == POLICY_SHIFTED else self.k


class _TverbergInstanceFields(NamedTuple):
    config: PointConfig
    r: int
    mode: str = "free"
    dim_caps: DimCaps | None = None
    disjointness: str = "multiset-proper"
    constraint_count: int = 0  # c, the removed sets of Theorem 6.2


class TverbergInstance(_TverbergInstanceFields):
    """A search input that holds its mode's hypotheses.

    `__new__` checks the mode, the disjointness and r, then the hypotheses
    of the mode's theorem: 1.3 (and its lift, 1.4), 6.2 with
    `constraint_count` removed sets, 6.3 or 1.6; InputError on failure.  A
    balanced instance without dimension caps gets the caps that solve
    r*k + s = (r-1)*d under the shifted policy, before its other checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.disjointness not in ("multiset-proper", "vertex-disjoint"):
            raise InputError(f"unknown disjointness {self.disjointness!r}")
        if self.r < 2:
            raise InputError("need at least r = 2 parts")
        if self.r > MAX_PARTS:
            raise ResourceLimitError(f"search depth r = {self.r} exceeds the cap ({MAX_PARTS})")
        if self.mode in ("prime-power-1.3", "lifted-1.4"):
            _validate_generalized(self.config, self.r, 0)
        elif self.mode == "equal-classes-6.3":
            _validate_equal_classes(self.config, self.r)
        elif self.mode == "generalized-6.2":
            if self.constraint_count < 1:
                raise InputError("generalized mode needs the constraint count c >= 1")
            _validate_generalized(self.config, self.r, self.constraint_count)
        elif self.mode == "balanced-1.6":
            if self.dim_caps is None:
                # _replace skips __new__; DimCaps checked its own fields
                self = self._replace(dim_caps=DimCaps(*solve_balanced_caps(self.r, self.config.d)))
            _validate_balanced(self.config, self.r)
            if self.disjointness != "vertex-disjoint":
                raise InputError("balanced mode requires vertex-disjoint faces")
            solve_balanced_caps(self.r, self.config.d)  # raises when no k exists
        return self


def prime_power_root(r: int) -> tuple:
    """(p, k) with r = p^k, for r >= 2; InputError when r is not a prime power.

    The least divisor p > 1 of r is prime, so r is a prime power iff it is a
    power of p.
    """
    p = next(q for q in range(2, r + 1) if r % q == 0)
    k, n = 0, r
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise InputError(f"r = {r} is not a prime power")
    return p, k


def _unused(config: PointConfig, color: int, allowed) -> list:
    """What color class `color` leaves unused of the multiset `allowed`;
    InputError unless the class's multiplicities are a sub-multiset of it."""
    mults = [config.points[i].multiplicity for i in config.color_class(color)]
    unused = list(allowed)
    for mu in mults:
        if mu not in unused:
            raise InputError(
                f"color class {color} multiplicities {sorted(mults)} "
                f"are not a sub-multiset of {sorted(allowed)}"
            )
        unused.remove(mu)
    return unused


def _validate_equal_classes(config: PointConfig, r: int) -> None:
    """Theorem 6.3: d + 2 classes, each a sub-multiset of L, of total
    multiplicity (r-1)(d+1)+1."""
    p, k = prime_power_root(r)
    d = config.d
    if config.num_colors != d + 2:
        raise InputError(f"expected {d + 2} color classes, got {config.num_colors}")
    L = multiplicity_vector(p, k)
    for color in range(d + 2):
        _unused(config, color, L)
    total = sum(pt.multiplicity for pt in config.points)
    if total != (r - 1) * (d + 1) + 1:
        raise InputError(
            f"total multiplicity {total} must equal (r-1)(d+1)+1 = {(r - 1) * (d + 1) + 1}"
        )


def _can_pack(missing: dict, bins: int, r: int) -> bool:
    """Whether weights that are powers of p, `missing[w]` of each weight w,
    pack into `bins` sets of weight <= r - 1, where r = p^k.

    The weights divide one another, so in any set the weights >= w total a
    multiple of w, at most r - w.  Conversely, placed largest first, the
    weights w fit iff they fit in the room that the larger ones leave,
    counted in units of w, and that room is the same however the larger
    ones were placed.  So they pack iff, for every w, the weights >= w total
    at most bins * (r - w).
    """
    total = 0
    for w in sorted(missing, reverse=True):
        total += w * missing[w]
        if total > bins * (r - w):
            return False
    return True


def _validate_generalized(config: PointConfig, r: int, c: int) -> None:
    """Theorem 6.2's enlargement check, and with c = 0 Theorem 1.3's.

    Classes 0..d+c are sub-multisets of L and class d+c+1 of [1]; what they
    leave unused must pack into c removed sets of weight <= r-1.  With no
    sets, nothing may be unused: classes 0..d are L and the last is [1].
    Only the configuration's classes and the last are walked: every class
    of 0..d+c past the configuration's is empty and leaves all of L unused,
    so the work does not grow with c.
    """
    p, k = prime_power_root(r)
    last = config.d + c + 1
    t = config.num_colors
    if t > last + 1:
        raise InputError(f"expected at most {last + 1} color classes")
    L = multiplicity_vector(p, k)
    missing = dict.fromkeys(L, 0)
    for w in L:
        missing[w] += max(last - t, 0)  # the empty classes among 0..d+c
    for color in range(min(t, last)):
        for w in _unused(config, color, L):
            missing[w] += 1
    for w in _unused(config, last, (1,)):
        missing[w] += 1
    if not _can_pack(missing, c, r):
        left = {w: count for w, count in sorted(missing.items()) if count}
        raise InputError(
            f"missing multiplicities (weight: count) {left} cannot be split into "
            f"{c} removed sets of weight <= {r - 1}"
        )


def solve_balanced_caps(r: int, d: int):
    """(k, s) with r*k + s = (r-1)*d, k > 0, 0 <= s < r; InputError otherwise."""
    k, s = divmod((r - 1) * d, r)
    if k <= 0:
        raise InputError(
            f"no positive k solves r*k + s = (r-1)*d for r={r}, d={d}; "
            "the balanced dimension constraints are undefined here"
        )
    return k, s


def _validate_balanced(config: PointConfig, r: int) -> None:
    d = config.d
    n_expected = (r - 1) * (d + 2) + 1
    if len(config.points) != n_expected:
        raise InputError(f"balanced mode needs (r-1)(d+2)+1 = {n_expected} points")
    q = (r + 1) // 2
    for color in range(config.num_colors):
        if len(config.color_class(color)) > q:
            raise InputError(f"color class {color} exceeds the size bound {q}")


class TverbergSolution(NamedTuple):
    faces: tuple  # tuple of tuples of point indices
    witness: tuple
    certificates: tuple  # per face, tuple of convex coefficients
    policy: str | None = None

    def to_json(self) -> dict:
        out = {
            "faces": [list(f) for f in self.faces],
            "witness": [format_rational(c) for c in self.witness],
            "certificates": [[format_rational(c) for c in cert] for cert in self.certificates],
        }
        if self.policy:
            out["policy"] = self.policy
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TverbergSolution":
        try:
            return cls(
                tuple(tuple(json_int(v, "face index") for v in f) for f in data["faces"]),
                tuple(parse_rational(c) for c in data["witness"]),
                tuple(tuple(parse_rational(c) for c in cert) for cert in data["certificates"]),
                data.get("policy"),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed solution JSON: {exc}") from exc


def _grid(config: PointConfig) -> tuple:
    """(L, every point's coordinates times L as a tuple of ints), where L is
    the lcm of all coordinate denominators: the search's one integer grid."""
    L = math.lcm(*(c.denominator for pt in config.points for c in pt.coords))
    return L, [tuple(c.numerator * (L // c.denominator) for c in pt.coords) for pt in config.points]


def hulls_intersect(faces, grid: tuple):
    """Exact common point of the convex hulls, or a Farkas vector.

    Solves for convex coefficients per face equating all barycentric
    combinations; infeasibility is a definitive verdict, not an error.  The
    faces are a list of nonempty tuples of point indices, as `rainbow_faces`
    builds them, and are not checked again.  The rows are the rational
    system's rows times L, as ints on `grid`, the configuration's integer
    grid (L, X) from `_grid`: L on each face's convexity row, and grid
    coordinates on each coordinate row.  The LP returns the point it would
    return on the rational rows, and the witness is formed from the grid
    coordinates over one common denominator.

    The rows go first to `unique_solution`, which gives the LP's point
    when the columns are independent and the one solution is >= 0 (see
    `exactlp`).  The columns mostly are independent when the faces hold at
    most (r-1)(d+1)+1 points in all, the number of rows.  Only the systems
    it leaves unanswered reach the LP.
    Returns ((witness, certificates), None, pivots) when the hulls meet, and
    (None, z, pivots) when they do not, where z is the LP's Farkas vector,
    checked here in integers: z^T A >= 0 on every column and z^T b < 0;
    pivots is the LP's pivots, or None when the elimination answered.
    """
    L, X = grid
    d = len(X[0])
    total = sum(map(len, faces))
    rows = []
    offset = 0
    for f in faces:
        rows.append([0] * offset + [L] * len(f) + [0] * (total - offset - len(f)))
        offset += len(f)
    rhs = [L] * len(faces)
    first = faces[0]
    offset = len(first)
    for f in faces[1:]:
        between = [0] * (offset - len(first))
        after = [0] * (total - offset - len(f))
        for coord in range(d):
            rows.append([X[v][coord] for v in first] + between + [-X[v][coord] for v in f] + after)
            rhs.append(0)
        offset += len(f)

    x, z, pivots = unique_solution(rows, rhs), None, None
    if x is None:
        x, z, pivots = solve_equality_feasibility(rows, rhs)
    if x is None:
        if sum(map(operator.mul, z, rhs)) >= 0 or any(
            sum(map(operator.mul, z, col)) < 0 for col in zip(*rows)
        ):
            raise AssertionError("the LP's Farkas vector fails its own system")
        return None, z, pivots
    certificates = []
    offset = 0
    for f in faces:
        certificates.append(tuple(x[offset:offset + len(f)]))
        offset += len(f)
    # the first face's coefficients are n_j / D; its point is sum n_j X_v / (D L)
    D = math.lcm(*(c.denominator for c in certificates[0]))
    weights = [c.numerator * (D // c.denominator) for c in certificates[0]]
    witness = tuple(
        Fraction(sum(w * X[v][coord] for w, v in zip(weights, first)), D * L)
        for coord in range(d)
    )
    return (witness, tuple(certificates)), None, pivots


def is_rainbow(config: PointConfig, face) -> bool:
    colors = [config.points[v].color for v in face]
    return len(colors) == len(set(colors))


def respects_multiplicities(config: PointConfig, faces) -> bool:
    usage: dict = {}
    for f in faces:
        for v in f:
            usage[v] = usage.get(v, 0) + 1
    return all(usage[v] <= config.points[v].multiplicity for v in usage)


def verify_solution(config: PointConfig, solution: TverbergSolution) -> bool:
    """Re-check a certificate by direct substitution, independent of the LP.

    The check clears denominators itself: the points' coordinates times M,
    the lcm of their denominators, and each face's coefficients times D,
    the lcm of theirs, as ints n_j.  A face passes iff every n_j >= 0, they
    sum to D, and sum_j n_j (M x_v) = D M w on each coordinate of the
    witness w, compared as integers by cross-multiplying w's fraction.
    """
    if len(solution.faces) != len(solution.certificates) or len(solution.witness) != config.d:
        return False
    M = math.lcm(*(c.denominator for pt in config.points for c in pt.coords))
    scaled = [[c.numerator * (M // c.denominator) for c in pt.coords] for pt in config.points]
    for face, cert in zip(solution.faces, solution.certificates):
        if len(face) != len(cert) or not all(0 <= v < len(config.points) for v in face):
            return False
        D = math.lcm(*(c.denominator for c in cert))
        n = [c.numerator * (D // c.denominator) for c in cert]
        if any(nj < 0 for nj in n) or sum(n) != D:
            return False
        for coord, w in enumerate(solution.witness):
            value = sum(nj * scaled[v][coord] for nj, v in zip(n, face))
            if value * w.denominator != D * M * w.numerator:
                return False
        if not is_rainbow(config, face):
            return False
    return respects_multiplicities(config, solution.faces)


def _rainbow_count(config: PointConfig) -> int:
    """prod(1 + |class|) - 1: the number of nonempty rainbow faces."""
    return math.prod(1 + n for n in Counter(pt.color for pt in config.points).values()) - 1


def rainbow_faces(config: PointConfig, top: int | None = None):
    """The nonempty rainbow faces of at most `top` vertices (all when None),
    in lexicographic (size, vertex ids) order.  A vertex has one color, so
    the faces made are distinct.  `search_tverberg` guards their number.
    """
    classes = [[] for _ in range(config.num_colors)]
    for i, pt in enumerate(config.points):
        classes[pt.color].append(i)
    faces = []
    for size in range(1, len(classes) + 1)[:top]:
        faces += sorted(
            tuple(sorted(verts))
            for chosen in itertools.combinations(classes, size)
            for verts in itertools.product(*chosen)
        )
    return faces


def _grid_projections(points: list) -> list:
    """Per grid point (of `_grid`), its projections onto e_i, e_i + e_j and
    e_i - e_j (i < j): d^2 ints per point."""
    pairs = list(itertools.combinations(range(len(points[0]) if points else 0), 2))
    return [
        x + tuple(x[i] + x[j] for i, j in pairs) + tuple(x[i] - x[j] for i, j in pairs)
        for x in points
    ]


def _meet_masks(projections: list, touch: list):
    """The box row of one face at a time: a function that maps a face (a
    tuple of point indices) to the bitmask of the faces j whose box meets
    its box on every direction; touch[q] is the bitmask of the faces that
    contain point q.

    A face's box spans its points' projections (lo to hi) on each
    direction, and boxes meet iff hi_j >= lo_i and lo_j <= hi_i there.  The
    set-up is per point: on each direction, every point's rank among the
    sorted distinct projections, and prefix and suffix ORs of `touch` over
    them, so that above[k] holds the faces with a point of rank >= k.  The
    faces with hi_j >= lo_i have a point at or above one of i's, and the
    suffix ORs form a chain, so they are the entry at the lowest rank of
    i's points; lo_j <= hi_i takes the prefix OR at the highest.  A row is
    then two ANDs of F-bit masks per direction.  The chains of all
    directions lie end to end in two flat lists, and each point keeps one
    tuple of indices into them: at large d, a list per direction would
    leave the garbage collector hundreds of thousands of objects to scan.

    The chains keep every step-th entry of a direction, from its top rank
    down for the suffix ORs and from rank 0 up for the prefix ORs, with
    step = ceil(2 d^2 points F / `MAX_CHAIN_BITS`), so that they stay
    within that budget plus 2 d^2 F bits; step is 1 unless the points and
    the faces are both many.  A missing entry is the nearest kept one
    beyond it, ORed with `touch` of the points of the fewer than step
    ranks in between, which `order` lists by rank from `starts`.  The
    set-up also holds one direction's full chains, 2 points F bits, while
    it builds them.
    """
    n = len(touch)
    width = max(map(int.bit_length, touch), default=0)  # F, the faces built
    step = -(-2 * len(projections[0] if projections else ()) * n * width // MAX_CHAIN_BITS) or 1
    belows, aboves, columns = [], [], []
    order = array("i")  # per direction, the points by rank
    starts = array("i")  # starts[k]: where rank k's points begin in order
    for column in zip(*projections):
        values = sorted(set(column))
        top = len(values) - 1
        base = len(belows)  # this direction's rank 0 in the flat lists
        index = {value: base + k for k, value in enumerate(values)}
        ranks = [index[value] for value in column]
        level = [0] * len(values)  # level[k]: the faces with a point of the k-th value
        for q, k in enumerate(ranks):
            level[k - base] |= touch[q]
        belows += itertools.accumulate(level, operator.or_)
        suffix = list(itertools.accumulate(reversed(level), operator.or_))
        suffix.reverse()
        aboves += suffix
        columns.append(tuple(ranks))
        if step > 1:  # keep every step-th entry, and what `fill` reads to fill in the rest
            for chain, first in ((belows, base), (aboves, base + top % step)):
                kept = chain[first::step]
                chain[base:] = [None] * len(values)
                chain[first::step] = kept
            by_rank = sorted(ranks)
            starts.extend(bisect.bisect_left(by_rank, k) + len(order) for k in range(base, len(belows)))
            order.extend(sorted(range(n), key=ranks.__getitem__))
    starts.append(len(order))
    keys = list(zip(*columns))  # keys[q]: q's index on each direction

    def fill(chain: list, k: int, toward: int) -> int:  # missing entry k of aboves (+1) or belows (-1)
        kept = k + toward
        while chain[kept] is None:
            kept += toward
        first, end = (k, kept) if toward > 0 else (kept + 1, k + 1)
        points = order[starts[first]:starts[end]]
        return functools.reduce(operator.or_, map(touch.__getitem__, points), chain[kept])

    def row(face) -> int:
        meets = -1  # every face; the first direction cuts it to the built ones
        for span in zip(*[keys[v] for v in face]):
            lo, hi = min(span), max(span)
            meets &= aboves[lo] if aboves[lo] is not None else fill(aboves, lo, 1)
            meets &= belows[hi] if belows[hi] is not None else fill(belows, hi, -1)
        return meets

    return row


def _farkas_cover(z: list, r: int, grid: tuple, touch: list, built: int) -> list:
    """Per position of an r-tuple, the built faces that a Farkas vector z of
    `hulls_intersect`'s rows proves infeasible there.

    Those rows' right-hand side is L on the r convexity rows and 0 on the
    coordinate rows, whatever the faces.  So z reads as c_k on convexity row
    k and u_k in Z^d on the rows that pair face 0 with face k, and z^T b =
    L sum c_k < 0 holds for every tuple.  A point x at position 0 has the
    column value c_0 L + sum_k <u_k, X[x]>, and at position k >= 1 the value
    c_k L - <u_k, X[x]>; z proves a tuple infeasible if each of its faces
    has no point of negative value at its position.
    """
    L, X = grid
    d = len(X[0])
    c, u = z[:r], z[r:]
    dots = [[sum(map(operator.mul, u[k * d:(k + 1) * d], x)) for x in X] for k in range(r - 1)]
    values = [[c[0] * L + sum(t) for t in zip(*dots)]]
    values += [[c[k + 1] * L - t for t in dots[k]] for k in range(r - 1)]
    cover = []
    for position in values:
        failing = 0
        for q, value in enumerate(position):
            if value < 0:
                failing |= touch[q]
        cover.append(built & ~failing)
    return cover


def search_tverberg(instance: TverbergInstance):
    """Canonical-order pruned enumeration of r-tuples of rainbow faces.

    Tuples are non-decreasing in the face order (killing part relabeling).
    Faces are bits of masks, and each prefix carries three: the faces its
    multiplicity budget (or vertex-disjointness) blocks, the faces whose
    boxes on the integer grid of `_grid` meet the box of every prefix face,
    and, through its count of faces at the top dimension, the faces the
    dimension caps cut.  By Helly's theorem on a line, intervals share a
    point iff they meet pairwise, so the box mask is the AND of the prefix
    faces' rows of `_meet_masks`, and an empty running box proves that no
    extension has intersecting hulls.  A face's row is built when the search
    first picks it at a depth below r - 1, and kept; a face at the last
    position needs none, as it completes a full tuple, which reads no box.
    So the set-up before the first prefix is per point, and the rows cost
    only the faces picked, not all F.  Caps build only the faces of at most
    max_dim + 1 vertices; the rest are the high bits, always cut.  Each
    level visits the faces that survive all three masks in ascending order,
    and the recursion is r - 1 deep: the level of depth r - 1 tests each
    full tuple it forms in its own loop, without a call below it.

    The color-budget cut then closes a prefix of depth t, 1 <= t <= r - 2,
    when some color class has less than r - t budget left and a point in
    every face that survives the masks.  It is exact: deeper prefixes visit
    subsets of those faces; each of the r - t faces still to come holds one
    point of the class, a rainbow face holding at most one; and the budget
    mask keeps every vertex's budget >= 0, so the class cannot pay for
    them.  So no full tuple is lost, and every LP call, Farkas vector and
    solution stays as it was.  At t = r - 1 a class with nothing left has
    all its faces blocked, and at the root the surviving faces hold every
    singleton or none, so the cut could fire there only on a one-color
    configuration; neither depth is tested, and with r = 2 the cut builds
    nothing.  Classes of budget >= r never have less than r - t left.

    Only full tuples reach the LP.  Each infeasible LP's Farkas vector is
    kept as the faces it covers per position (`_farkas_cover`), and a full
    tuple that one kept vector covers at every position skips its LP; the
    last position, the one the prefix does not fix, is tested first.  A
    feasible tuple is never covered, so the first solution is the first
    feasible tuple in canonical order, and it is re-checked by substitution
    (`verify_solution`) before it is returned.  Returns (the first solution
    or None, stats): the rainbow faces, the box rows built, the prefixes
    each rule pruned (a face counts for the first rule that cuts it:
    dimension caps, budget, box, color budget, where a closed prefix counts
    every face that survived the masks), the full tuples the kept vectors
    cut, the LP calls and feasible LPs, the simplex pivots, and the LP
    calls that the elimination answered with no simplex.  The instance
    checked its mode's hypotheses when it was made.
    More than `MAX_RAINBOW_FACES` rainbow faces, or d^2 (points + rainbow
    faces) above `MAX_BOX_WORK`, raise `ResourceLimitError` before any face
    or projection is built.
    """
    config = instance.config
    r = instance.r
    caps = instance.dim_caps
    count = _rainbow_count(config)
    if count > MAX_RAINBOW_FACES:
        raise ResourceLimitError(
            f"{shown(count)} rainbow faces exceed MAX_RAINBOW_FACES = {MAX_RAINBOW_FACES}"
        )
    work = config.d ** 2 * (len(config.points) + count)
    if work > MAX_BOX_WORK:
        raise ResourceLimitError(
            f"d^2 (points + rainbow faces) = {shown(work)} exceeds MAX_BOX_WORK = {MAX_BOX_WORK}"
        )
    faces = rainbow_faces(config, None if caps is None else caps.max_dim + 1)
    touch = [0] * len(config.points)  # touch[v]: the faces that contain v
    for fi, f in enumerate(faces):
        for v in f:
            touch[v] |= 1 << fi
    grid = _grid(config)
    meet_row = _meet_masks(_grid_projections(grid[1]), touch)
    rows = [None] * len(faces)  # rows[fi]: face fi's box row, once built
    everything = (1 << count) - 1
    built = (1 << len(faces)) - 1
    over_cap = everything ^ built  # faces above the top dimension
    at_cap = 0  # faces at it, the last block built
    quota = 0  # how many of those a tuple may hold
    if caps is not None:
        lower = sum(len(f) <= caps.max_dim for f in faces)
        at_cap = built >> lower << lower
        quota = caps.s
    disjoint = instance.disjointness == "vertex-disjoint"

    # a vertex-disjoint tuple uses each vertex at most once
    budget = [1 if disjoint else pt.multiplicity for pt in config.points]
    # per class of budget < r, the faces without a point of it and its
    # vertices, for the color-budget cut
    tight = []
    if r > 2:
        classes: dict = {}
        for v, pt in enumerate(config.points):
            classes.setdefault(pt.color, []).append(v)
        for members in classes.values():
            if sum(budget[v] for v in members) < r:
                palette = 0  # the faces with a point of the class
                for v in members:
                    palette |= touch[v]
                tight.append((built ^ palette, members))

    chosen: list = []
    covers: list = []  # per kept Farkas vector, its faces per position
    stats = {
        "rainbow_faces": count,
        "box_rows": 0,
        "pruned_dim_cap": 0,
        "pruned_budget": 0,
        "pruned_box": 0,
        "pruned_color": 0,
        "pruned_farkas": 0,
        "lp_calls": 0,
        "lp_feasible": 0,
        "lp_pivots": 0,
        "lp_direct": 0,
    }

    def rec(start: int, allowed: int, blocked: int, capped_used: int):
        depth = len(chosen)
        window = everything >> start << start
        cut = window & ((over_cap | at_cap) if capped_used == quota else over_cap)
        live = window & ~cut
        spent = live & blocked
        live &= ~blocked
        missed = live & ~allowed
        live &= allowed
        stats["pruned_dim_cap"] += cut.bit_count()
        stats["pruned_budget"] += spent.bit_count()
        stats["pruned_box"] += missed.bit_count()
        if 0 < depth < r - 1 and live:
            for lacks, members in tight:
                if not live & lacks and sum(budget[v] for v in members) < r - depth:
                    stats["pruned_color"] += live.bit_count()
                    return None
        last = depth == r - 1
        while live:
            low = live & -live
            live ^= low
            fi = low.bit_length() - 1
            f = faces[fi]
            if last:  # chosen + [fi] is a full tuple
                if any(
                    cover[-1] & low and all(cover[k] >> fj & 1 for k, fj in enumerate(chosen))
                    for cover in covers
                ):
                    stats["pruned_farkas"] += 1
                    continue
                tup = [faces[i] for i in chosen] + [f]
                stats["lp_calls"] += 1
                got, z, pivots = hulls_intersect(tup, grid)
                if pivots is None:
                    stats["lp_direct"] += 1
                else:
                    stats["lp_pivots"] += pivots
                if got is None:
                    # z passed the check on this tuple's own rows, so it covers the tuple
                    covers.append(_farkas_cover(z, r, grid, touch, built))
                    continue
                stats["lp_feasible"] += 1
                witness, certs = got
                found = TverbergSolution(tuple(tup), witness, certs, caps.policy if caps else None)
            else:
                now_blocked = blocked
                for v in f:
                    budget[v] -= 1
                    if not budget[v]:
                        now_blocked |= touch[v]
                row = rows[fi]
                if row is None:
                    row = rows[fi] = meet_row(f)
                    stats["box_rows"] += 1
                chosen.append(fi)
                found = rec(
                    fi + 1 if disjoint else fi,
                    allowed & row,
                    now_blocked,
                    capped_used + (1 if at_cap & low else 0),
                )
                chosen.pop()
                for v in f:
                    budget[v] += 1
            if found is not None:
                # a face counts as pruned only if it comes before the face
                # that ended the search, as in a face-at-a-time loop
                above = ~((low << 1) - 1)
                stats["pruned_dim_cap"] -= (cut & above).bit_count()
                stats["pruned_budget"] -= (spent & above).bit_count()
                stats["pruned_box"] -= (missed & above).bit_count()
                return found
        return None

    solution = rec(0, everything, 0, 0)
    if solution is not None and not verify_solution(config, solution):
        raise AssertionError("LP produced a certificate that failed re-substitution")
    return solution, stats


class LiftResult(NamedTuple):
    config: PointConfig
    solution: TverbergSolution
    projection: dict  # lifted vertex index -> abridged vertex index


def lift_to_vertex_disjoint(config: PointConfig, solution: TverbergSolution, r: int) -> "LiftResult":
    """Expand multiplicities into distinct fiber vertices per color class.

    Each color class of the abridged configuration is blown up into r - 1
    vertices of multiplicity one (one fiber element per unit of multiplicity);
    each use of an abridged vertex lands on a fresh fiber element.  The
    witness transfers verbatim because fiber vertices keep the coordinates
    of their images.  r above `MAX_PARTS` raises `ResourceLimitError` before
    anything is checked or built.
    """
    if r > MAX_PARTS:
        raise ResourceLimitError(f"lift to r = {r} parts exceeds the cap ({MAX_PARTS})")
    if not verify_solution(config, solution):
        raise InputError("the solution fails re-substitution on the configuration")
    d = config.d
    if config.num_colors != d + 2 or len(config.color_class(d + 1)) != 1:
        raise InputError(f"lifting needs {d + 2} color classes, the last a single vertex")
    for color in range(d + 1):
        total = sum(config.points[i].multiplicity for i in config.color_class(color))
        if total != r - 1:
            raise InputError(f"color class {color} multiplicities sum to {total}, expected {r - 1}")

    # lifted vertex layout: per class, consecutive fiber blocks per vertex
    lifted_points = []
    fiber_of: dict = {}  # abridged index -> list of lifted indices
    for color in range(d + 1):
        for i in config.color_class(color):
            pt = config.points[i]
            fiber_of[i] = []
            for _ in range(pt.multiplicity):
                fiber_of[i].append(len(lifted_points))
                lifted_points.append(ColoredPoint(pt.coords, color, 1))
    (exceptional,) = config.color_class(d + 1)
    fiber_of[exceptional] = [len(lifted_points)]
    lifted_points.append(ColoredPoint(config.points[exceptional].coords, d + 1, 1))
    lifted_config = PointConfig(d, tuple(lifted_points))

    next_use = {i: 0 for i in fiber_of}
    lifted_faces = []
    lifted_certs = []
    for face, cert in zip(solution.faces, solution.certificates):
        pairs = []
        for v, coeff in zip(face, cert):
            uses = fiber_of[v]
            if next_use[v] >= len(uses):
                raise InputError(f"vertex {v} is used beyond its multiplicity")
            pairs.append((uses[next_use[v]], coeff))
            next_use[v] += 1
        pairs.sort()
        lifted_faces.append(tuple(v for v, _ in pairs))
        lifted_certs.append(tuple(c for _, c in pairs))

    lifted_solution = TverbergSolution(
        tuple(lifted_faces), solution.witness, tuple(lifted_certs), solution.policy
    )
    # every lifted vertex has multiplicity 1, so this also checks that the
    # lifted faces are pairwise vertex disjoint
    if not verify_solution(lifted_config, lifted_solution):
        raise AssertionError("lifted certificate failed re-substitution")
    projection = {lv: v for v, lvs in fiber_of.items() for lv in lvs}
    return LiftResult(lifted_config, lifted_solution, projection)


def build_example_a(p: int, k: int, d: int, epsilon: Fraction = Fraction(0), seed: int = 0):
    """Clustered simplex-plus-barycenter configuration.

    Color i <= d holds k(p-1) points clustered at vertex A_i (epsilon-scattered
    when epsilon > 0, deterministically under the seed) with multiplicities
    (1, p, ..., p^(k-1)) repeated p-1 times; the barycenter is the exceptional
    point.  A_0 is the origin and A_i = 3 e_i.  The d + 1 classes of k(p-1)
    points and the exceptional point make 2 (1 + k(p-1))^(d+1) - 1 rainbow
    faces; more than `MAX_RAINBOW_FACES` raise `ResourceLimitError` before
    any point is built.
    """
    if k < 1 or d < 1:
        raise InputError("k and d must be positive")
    if power_exceeds(p, k, MAX_EXAMPLE_ORDER):
        raise InputError(f"p^k = {p}^{k} exceeds the example guard ({MAX_EXAMPLE_ORDER})")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    # 2 x - 1 > MAX iff x > (MAX + 1) // 2, for an integer x
    if power_exceeds(1 + k * (p - 1), d + 1, (MAX_RAINBOW_FACES + 1) // 2):
        raise ResourceLimitError(
            f"2 * {1 + k * (p - 1)}^{d + 1} - 1 rainbow faces exceed "
            f"MAX_RAINBOW_FACES = {MAX_RAINBOW_FACES}"
        )
    epsilon = Fraction(epsilon)
    rng = random.Random(seed)
    # A_i + epsilon * n / 100 on each axis, with epsilon = e / q, is
    # (300 q [on axis i - 1] + e n) / (100 q): one Fraction per coordinate
    e, q = epsilon.numerator, epsilon.denominator
    mults = multiplicity_vector(p, k)
    points = []
    for color in range(d + 1):
        for mu in mults:
            coords = tuple(
                Fraction((300 * q if axis == color - 1 else 0) + e * rng.randint(-100, 100), 100 * q)
                for axis in range(d)
            )
            points.append(ColoredPoint(coords, color, mu))
    # the anchors sum to 3 on every axis
    points.append(ColoredPoint((Fraction(3, d + 1),) * d, d + 1, 1))
    config = PointConfig(d, tuple(points))
    # the instance checks the hypotheses of Theorem 1.3 when it is made
    return config, TverbergInstance(config, p**k, mode="prime-power-1.3")
