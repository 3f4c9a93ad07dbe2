"""Exact-rational colored point configurations and Tverberg partition search.

Points live in Q^d with color labels and multiplicities.  The search
enumerates tuples of rainbow faces within the multiplicity budget and
certifies hull intersections by exact linear programming; every returned
witness carries per-face convex coefficients that are re-checked by direct
substitution, independently of the LP.

Before the LP, the search prunes by boxes on one integer grid: every
coordinate is multiplied by L, the lcm of all coordinate denominators, and
each scaled point is projected onto the d^2 integer directions e_i, e_i + e_j
and e_i - e_j (i < j).  A face's box is the interval of its projections on
each direction.  Faces whose hulls share a point x have boxes that all
contain <L x, u> on every direction u, so a tuple whose boxes miss on some
direction is infeasible, and that direction separates two of its faces.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, ResourceLimitError, json_int
from .exactlp import solve_equality_feasibility
from .maps import CollapseTheta, is_prime, multiplicity_vector

MODES = (
    "prime-power-1.3",
    "lifted-1.4",
    "generalized-6.2",
    "equal-classes-6.3",
    "balanced-1.6",
    "free",
)

# The search recurses once per part, so r is capped well below Python's
# recursion limit.
MAX_PARTS = 64

POLICY_SHIFTED = "shifted-k-plus-1"
POLICY_LITERAL = "literal-k"


def parse_rational(text) -> Fraction:
    """Parse a canonical "p/q" string (or int) into an exact rational."""
    try:
        if isinstance(text, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(text, int):
            return Fraction(text)
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}: {exc}") from exc


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


@dataclass(frozen=True)
class ColoredPoint:
    coords: tuple
    color: int
    multiplicity: int


@dataclass(frozen=True)
class PointConfig:
    """Exact-rational points with contiguous color labels and multiplicities."""

    d: int
    points: tuple

    def __post_init__(self):
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


@dataclass(frozen=True)
class DimCaps:
    k: int
    s: int
    policy: str = POLICY_SHIFTED

    def __post_init__(self):
        if self.policy not in (POLICY_SHIFTED, POLICY_LITERAL):
            raise InputError(f"unknown dimension-cap policy {self.policy!r}")
        if self.k < 0 or self.s < 0:
            raise InputError(f"dimension caps must be non-negative, got k = {self.k}, s = {self.s}")

    @property
    def max_dim(self) -> int:
        """Largest face dimension allowed; at most s faces may have it."""
        return self.k + 1 if self.policy == POLICY_SHIFTED else self.k


@dataclass(frozen=True)
class TverbergInstance:
    config: PointConfig
    r: int
    mode: str = "free"
    dim_caps: DimCaps | None = None
    disjointness: str = "multiset-proper"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.disjointness not in ("multiset-proper", "vertex-disjoint"):
            raise InputError(f"unknown disjointness {self.disjointness!r}")
        if self.r < 2:
            raise InputError("need at least r = 2 parts")

    def validate(self, constraint_count: int = 0) -> None:
        """Mode-specific hypothesis checks; InputError on failure."""
        if self.mode in ("prime-power-1.3", "lifted-1.4"):
            _validate_prime_power(self.config, self.r)
        elif self.mode == "equal-classes-6.3":
            _validate_equal_classes(self.config, self.r)
        elif self.mode == "generalized-6.2":
            _validate_generalized(self.config, self.r, constraint_count)
        elif self.mode == "balanced-1.6":
            _validate_balanced(self.config, self.r)
            if self.disjointness != "vertex-disjoint":
                raise InputError("balanced mode requires vertex-disjoint faces")
            solve_balanced_caps(self.r, self.config.d)  # raises when no k exists


def prime_power_root(r: int):
    """(p, k) with r = p^k, or None when r is not a prime power."""
    for p in range(2, r + 1):
        if r % p == 0:
            if not is_prime(p):
                return None
            k = 0
            n = r
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return None


def _prime_power_parts(r: int) -> tuple:
    """(p, k) with r = p^k; InputError when r is not a prime power."""
    pk = prime_power_root(r)
    if pk is None:
        raise InputError(f"r = {r} is not a prime power")
    return pk


def _validate_prime_power(config: PointConfig, r: int) -> None:
    p, k = _prime_power_parts(r)
    d = config.d
    if config.num_colors != d + 2:
        raise InputError(f"expected {d + 2} color classes, got {config.num_colors}")
    want = sorted(multiplicity_vector(p, k))
    for color in range(d + 1):
        cls = config.color_class(color)
        mults = sorted(config.points[i].multiplicity for i in cls)
        if mults != want:
            raise InputError(
                f"color class {color} multiplicities {mults} do not match L = {want}"
            )
    exceptional = config.color_class(d + 1)
    if len(exceptional) != 1 or config.points[exceptional[0]].multiplicity != 1:
        raise InputError("the exceptional class must be a single vertex of multiplicity 1")


def _validate_equal_classes(config: PointConfig, r: int) -> None:
    p, k = _prime_power_parts(r)
    d = config.d
    if config.num_colors != d + 2:
        raise InputError(f"expected {d + 2} color classes, got {config.num_colors}")
    allowed = {p**a for a in range(k)}
    for color in range(d + 2):
        counts: dict = {}
        for i in config.color_class(color):
            mu = config.points[i].multiplicity
            if mu not in allowed:
                raise InputError(f"multiplicity {mu} is not a power of {p} below p^{k}")
            counts[mu] = counts.get(mu, 0) + 1
        if any(c > p - 1 for c in counts.values()):
            raise InputError(f"color class {color} repeats a multiplicity more than p-1 times")
    total = sum(pt.multiplicity for pt in config.points)
    if total != (r - 1) * (d + 1) + 1:
        raise InputError(
            f"total multiplicity {total} must equal (r-1)(d+1)+1 = {(r - 1) * (d + 1) + 1}"
        )


def _can_pack(weights: list, bins: int, cap: int) -> bool:
    """Exact bin packing at desk scale (weights and bins are tiny)."""
    weights = sorted(weights, reverse=True)
    loads = [0] * bins

    def rec(idx):
        if idx == len(weights):
            return True
        seen = set()
        for b in range(bins):
            if loads[b] in seen:
                continue
            seen.add(loads[b])
            if loads[b] + weights[idx] <= cap:
                loads[b] += weights[idx]
                if rec(idx + 1):
                    return True
                loads[b] -= weights[idx]
        return False

    return rec(0)


def _validate_generalized(config: PointConfig, r: int, c: int) -> None:
    """Enlargement check: config + c removed sets of weight <= r-1 fill V."""
    p, k = _prime_power_parts(r)
    if c < 1:
        raise InputError("generalized mode needs the constraint count c >= 1")
    d = config.d
    num_classes = d + c + 2
    if config.num_colors > num_classes:
        raise InputError(f"expected at most {num_classes} color classes")
    want = sorted(multiplicity_vector(p, k))
    missing_weights = []
    for color in range(num_classes - 1):
        mults = sorted(
            config.points[i].multiplicity
            for i in config.color_class(color)
            if color < config.num_colors
        )
        remaining = list(want)
        for mu in mults:
            if mu not in remaining:
                raise InputError(
                    f"color class {color} multiplicities {mults} are not a sub-multiset of L"
                )
            remaining.remove(mu)
        missing_weights.extend(remaining)
    last = config.color_class(num_classes - 1) if config.num_colors == num_classes else ()
    if len(last) > 1:
        raise InputError("the exceptional class may contain at most one vertex")
    if last and config.points[last[0]].multiplicity != 1:
        raise InputError("the exceptional vertex must have multiplicity 1")
    if not last:
        missing_weights.append(1)
    if not _can_pack(missing_weights, c, r - 1):
        raise InputError(
            f"missing multiplicities {sorted(missing_weights)} cannot be split into "
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


@dataclass(frozen=True)
class TverbergSolution:
    faces: tuple  # tuple of tuples of point indices
    witness: tuple
    certificates: tuple  # per face, tuple of convex coefficients
    policy: str | None = None
    # the counters of the search that found it; not part of the certificate
    stats: dict | None = field(default=None, compare=False)

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
                tuple(tuple(int(v) for v in f) for f in data["faces"]),
                tuple(parse_rational(c) for c in data["witness"]),
                tuple(tuple(parse_rational(c) for c in cert) for cert in data["certificates"]),
                data.get("policy"),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed solution JSON: {exc}") from exc


@dataclass(frozen=True)
class Exhausted:
    candidates_examined: int
    stats: dict | None = field(default=None, compare=False)  # as in TverbergSolution


def hulls_intersect(config: PointConfig, faces):
    """Exact common point of the convex hulls, or None.

    Solves for convex coefficients per face equating all barycentric
    combinations; infeasibility is a definitive verdict, not an error.
    """
    faces = [tuple(f) for f in faces]
    if not faces or any(not f for f in faces):
        raise InputError("faces must be nonempty")
    for f in faces:
        for v in f:
            if not 0 <= v < len(config.points):
                raise InputError(f"point index {v} out of range")

    offsets = []
    total = 0
    for f in faces:
        offsets.append(total)
        total += len(f)

    rows = []
    rhs = []
    one = Fraction(1)
    zero = Fraction(0)
    for fi, f in enumerate(faces):
        row = [zero] * total
        for j in range(len(f)):
            row[offsets[fi] + j] = one
        rows.append(row)
        rhs.append(one)
    for fi in range(1, len(faces)):
        for coord in range(config.d):
            row = [zero] * total
            for j, v in enumerate(faces[0]):
                row[offsets[0] + j] += config.points[v].coords[coord]
            for j, v in enumerate(faces[fi]):
                row[offsets[fi] + j] -= config.points[v].coords[coord]
            rows.append(row)
            rhs.append(zero)

    x = solve_equality_feasibility(rows, rhs)
    if x is None:
        return None
    certificates = tuple(
        tuple(x[offsets[fi] + j] for j in range(len(f))) for fi, f in enumerate(faces)
    )
    witness = tuple(
        sum((certificates[0][j] * config.points[v].coords[coord] for j, v in enumerate(faces[0])),
            Fraction(0))
        for coord in range(config.d)
    )
    return witness, certificates


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
    """Re-check a certificate by direct substitution, independent of the LP."""
    if len(solution.faces) != len(solution.certificates) or len(solution.witness) != config.d:
        return False
    for face, cert in zip(solution.faces, solution.certificates):
        if len(face) != len(cert) or not all(0 <= v < len(config.points) for v in face):
            return False
        if any(c < 0 for c in cert) or sum(cert) != 1:
            return False
        for coord in range(config.d):
            value = sum(c * config.points[v].coords[coord] for c, v in zip(cert, face))
            if value != solution.witness[coord]:
                return False
        if not is_rainbow(config, face):
            return False
    return respects_multiplicities(config, solution.faces)


def rainbow_faces(config: PointConfig):
    """All nonempty rainbow faces, in lexicographic (size, vertex ids) order."""
    classes = [config.color_class(c) for c in range(config.num_colors)]
    faces = []
    for count in range(1, config.num_colors + 1):
        for chosen in itertools.combinations(range(config.num_colors), count):
            for verts in itertools.product(*(classes[c] for c in chosen)):
                faces.append(tuple(sorted(verts)))
    return sorted(set(faces), key=lambda f: (len(f), f))


def _grid_projections(config: PointConfig) -> list:
    """Per point, its projections onto e_i, e_i + e_j and e_i - e_j (i < j), as ints.

    Coordinates are scaled by L, the lcm of all coordinate denominators, so
    every projection is an integer on one grid: d^2 numbers per point.
    """
    L = math.lcm(*(c.denominator for pt in config.points for c in pt.coords))
    pairs = list(itertools.combinations(range(config.d), 2))
    out = []
    for pt in config.points:
        x = [c.numerator * (L // c.denominator) for c in pt.coords]
        out.append(
            tuple(x)
            + tuple(x[i] + x[j] for i, j in pairs)
            + tuple(x[i] - x[j] for i, j in pairs)
        )
    return out


def _box(projections: list, face):
    rows = [projections[v] for v in face]
    return tuple(map(min, zip(*rows))), tuple(map(max, zip(*rows)))


def _meet_masks(boxes: list) -> list:
    """Per face i, the bitmask of the faces j whose box meets box i on every direction.

    On direction u the intervals meet iff lo_j <= hi_i and hi_j >= lo_i.
    With the faces sorted by lo, the first condition holds on a prefix, and
    with them sorted by hi, the second holds on a suffix; prefix and suffix
    OR masks, found by bisection, give both without comparing every pair.
    """
    n = len(boxes)
    meets = [(1 << n) - 1] * n
    for u in range(len(boxes[0][0]) if boxes else 0):
        lo = [box[0][u] for box in boxes]
        hi = [box[1][u] for box in boxes]
        by_lo = sorted(range(n), key=lo.__getitem__)
        by_hi = sorted(range(n), key=hi.__getitem__)
        sorted_lo = [lo[i] for i in by_lo]
        sorted_hi = [hi[i] for i in by_hi]
        # prefix[k]: the faces of by_lo[:k]; suffix[k]: the faces of by_hi[k:]
        prefix = list(itertools.accumulate((1 << i for i in by_lo), operator.or_, initial=0))
        suffix = list(itertools.accumulate((1 << i for i in reversed(by_hi)), operator.or_, initial=0))
        suffix.reverse()
        for i in range(n):
            meets[i] &= prefix[bisect_right(sorted_lo, hi[i])] & suffix[bisect_left(sorted_hi, lo[i])]
    return meets


def _search(instance: TverbergInstance, find_all: bool):
    """Canonical-order pruned enumeration of r-tuples of rainbow faces.

    Tuples are non-decreasing in the face order (killing part relabeling).
    Faces are bits of masks, and each prefix carries three: the faces its
    multiplicity budget (or vertex-disjointness) blocks, the faces whose
    boxes on the integer grid of `_grid_projections` meet the box of every
    prefix face, and, through its count of faces at the top dimension, the
    faces the dimension caps cut.  Boxes are intervals on each direction,
    and by Helly's theorem on a line intervals share a point iff they meet
    pairwise, so the running box of a prefix is nonempty iff its faces'
    boxes meet pairwise: the mask is the AND of the prefix faces' rows of
    `_meet_masks`.  An empty running box proves that no extension has
    intersecting hulls.  Each level visits only the faces that survive all
    three masks, in ascending order, and only full tuples reach the LP, so
    the first solution is the first feasible tuple in canonical order.
    Returns (first or all solutions, stats), where stats counts the rainbow
    faces, the prefixes each rule pruned (a face counts for the first rule
    that cuts it, in the order dimension caps, budget, box), and the LP
    calls and feasible LPs.
    """
    config = instance.config
    r = instance.r
    if r > MAX_PARTS:
        raise ResourceLimitError(f"search depth r = {r} exceeds the cap ({MAX_PARTS})")
    faces = rainbow_faces(config)
    projections = _grid_projections(config)
    meets = _meet_masks([_box(projections, f) for f in faces])
    everything = (1 << len(faces)) - 1
    touch = [0] * len(config.points)  # touch[v]: the faces that contain v
    for fi, f in enumerate(faces):
        for v in f:
            touch[v] |= 1 << fi
    disjoint = instance.disjointness == "vertex-disjoint"
    caps = instance.dim_caps
    over_cap = at_cap = 0  # faces above the top dimension, and at it
    if caps is not None:
        for fi, f in enumerate(faces):
            if len(f) - 1 > caps.max_dim:
                over_cap |= 1 << fi
            elif len(f) - 1 == caps.max_dim:
                at_cap |= 1 << fi

    # a vertex-disjoint tuple uses each vertex at most once
    budget = [1 if disjoint else pt.multiplicity for pt in config.points]
    chosen: list = []
    solutions: list = []
    stats = {
        "rainbow_faces": len(faces),
        "pruned_dim_cap": 0,
        "pruned_budget": 0,
        "pruned_box": 0,
        "lp_calls": 0,
        "lp_feasible": 0,
    }

    def rec(start: int, allowed: int, blocked: int, capped_used: int):
        if len(chosen) == r:
            stats["lp_calls"] += 1
            got = hulls_intersect(config, [faces[i] for i in chosen])
            if got is not None:
                stats["lp_feasible"] += 1
                witness, certs = got
                solutions.append(
                    TverbergSolution(
                        tuple(faces[i] for i in chosen),
                        witness,
                        certs,
                        caps.policy if caps else None,
                    )
                )
            return bool(solutions) and not find_all
        window = everything >> start << start
        if caps is None:
            cut = 0
        elif capped_used > caps.s:
            cut = window
        elif capped_used + 1 > caps.s:
            cut = window & (over_cap | at_cap)
        else:
            cut = window & over_cap
        live = window & ~cut
        spent = live & blocked
        live &= ~blocked
        missed = live & ~allowed
        live &= allowed
        stats["pruned_dim_cap"] += cut.bit_count()
        stats["pruned_budget"] += spent.bit_count()
        stats["pruned_box"] += missed.bit_count()
        while live:
            low = live & -live
            live ^= low
            fi = low.bit_length() - 1
            f = faces[fi]
            now_blocked = blocked
            for v in f:
                budget[v] -= 1
                if not budget[v]:
                    now_blocked |= touch[v]
            chosen.append(fi)
            done = rec(
                fi + 1 if disjoint else fi,
                allowed & meets[fi],
                now_blocked,
                capped_used + (1 if at_cap & low else 0),
            )
            chosen.pop()
            for v in f:
                budget[v] += 1
            if done:
                # a face counts as pruned only if it comes before the face
                # that ended the search, as in a face-at-a-time loop
                above = ~((low << 1) - 1)
                stats["pruned_dim_cap"] -= (cut & above).bit_count()
                stats["pruned_budget"] -= (spent & above).bit_count()
                stats["pruned_box"] -= (missed & above).bit_count()
                return True
        return False

    rec(0, everything, 0, 0)
    return solutions, stats


def search_tverberg(instance: TverbergInstance, constraint_count: int = 0):
    """First certified solution in canonical order, or Exhausted.

    A balanced instance without dimension caps gets the caps that solve
    r*k + s = (r-1)*d under the shifted policy, which the result records.
    Either result carries the search counters in `stats`.
    """
    if instance.mode == "balanced-1.6" and instance.dim_caps is None:
        k, s = solve_balanced_caps(instance.r, instance.config.d)
        instance = dataclasses.replace(instance, dim_caps=DimCaps(k, s))
    instance.validate(constraint_count)
    solutions, stats = _search(instance, find_all=False)
    if solutions:
        sol = solutions[0]
        if not verify_solution(instance.config, sol):
            raise AssertionError("LP produced a certificate that failed re-substitution")
        return dataclasses.replace(sol, stats=stats)
    return Exhausted(stats["lp_calls"], stats)


def search_tverberg_all(instance: TverbergInstance):
    """Every solution of the pruned search (used by the oracle-equivalence tests)."""
    solutions, _ = _search(instance, find_all=True)
    return [s.faces for s in solutions]


@dataclass(frozen=True)
class LiftResult:
    config: PointConfig
    solution: TverbergSolution
    projection: dict  # lifted vertex index -> abridged vertex index


def lift_to_vertex_disjoint(
    config: PointConfig, solution: TverbergSolution, r: int, theta: CollapseTheta | None = None
) -> "LiftResult":
    """Expand multiplicities into distinct fiber vertices per color class.

    Each color class of the abridged configuration is blown up into r - 1
    vertices of multiplicity one (one fiber element per unit of multiplicity);
    each use of an abridged vertex lands on a fresh fiber element.  The
    witness transfers verbatim because fiber vertices keep the coordinates
    of their images.
    """
    if not verify_solution(config, solution):
        raise InputError("the solution fails re-substitution on the configuration")
    d = config.d
    if config.num_colors != d + 2 or len(config.color_class(d + 1)) != 1:
        raise InputError(f"lifting needs {d + 2} color classes, the last a single vertex")
    r_prime = r - 1
    class_mults = []
    for color in range(d + 1):
        cls = config.color_class(color)
        class_mults.append([config.points[i].multiplicity for i in cls])
        if sum(class_mults[-1]) != r_prime:
            raise InputError(
                f"color class {color} multiplicities sum to {sum(class_mults[-1])}, expected {r_prime}"
            )
    if theta is not None:
        fiber_sizes: dict = {}
        for j in range(1, theta.source_columns + 1):
            fiber_sizes[theta(j)] = fiber_sizes.get(theta(j), 0) + 1
        expected = sorted(class_mults[0])
        if sorted(fiber_sizes.values()) != expected:
            raise InputError(
                f"theta fiber sizes {sorted(fiber_sizes.values())} do not match L = {expected}"
            )

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

    # disjointness audit
    seen: set = set()
    for f in lifted_faces:
        if seen & set(f):
            raise AssertionError("lifted faces are not pairwise vertex disjoint")
        seen.update(f)

    lifted_solution = TverbergSolution(
        tuple(lifted_faces), solution.witness, tuple(lifted_certs), solution.policy
    )
    if not verify_solution(lifted_config, lifted_solution):
        raise AssertionError("lifted certificate failed re-substitution")
    projection = {lv: v for v, lvs in fiber_of.items() for lv in lvs}
    return LiftResult(lifted_config, lifted_solution, projection)


def build_example_a(p: int, k: int, d: int, epsilon: Fraction = Fraction(0), seed: int = 0):
    """Clustered simplex-plus-barycenter configuration.

    Color i <= d holds k(p-1) points clustered at vertex A_i (epsilon-scattered
    when epsilon > 0, deterministically under the seed) with multiplicities
    (1, p, ..., p^(k-1)) repeated p-1 times; the barycenter is the exceptional
    point.  A_0 is the origin and A_i = 3 e_i.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if p**k > 9:
        raise InputError(f"p^k = {p ** k} exceeds the example guard (9)")
    epsilon = Fraction(epsilon)
    rng = random.Random(seed)

    def vertex(i: int) -> tuple:
        return tuple(Fraction(3) if c == i - 1 else Fraction(0) for c in range(d))

    anchors = [vertex(i) for i in range(d + 1)]
    barycenter = tuple(
        sum((a[c] for a in anchors), Fraction(0)) / (d + 1) for c in range(d)
    )

    mults = multiplicity_vector(p, k)
    points = []
    for color in range(d + 1):
        for mu in mults:
            offset = tuple(
                epsilon * Fraction(rng.randint(-100, 100), 100) for _ in range(d)
            )
            points.append(
                ColoredPoint(
                    tuple(a + o for a, o in zip(anchors[color], offset)), color, mu
                )
            )
    points.append(ColoredPoint(barycenter, d + 1, 1))
    config = PointConfig(d, tuple(points))
    instance = TverbergInstance(config, p**k, mode="prime-power-1.3")
    instance.validate()
    return config, instance


def random_prime_power_config(p: int, k: int, d: int, seed: int) -> PointConfig:
    """Seeded random rational configuration satisfying the prime-power hypotheses."""
    rng = random.Random(seed)

    def coord() -> Fraction:
        return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))

    mults = multiplicity_vector(p, k)
    points = []
    for color in range(d + 1):
        for mu in mults:
            points.append(ColoredPoint(tuple(coord() for _ in range(d)), color, mu))
    points.append(ColoredPoint(tuple(coord() for _ in range(d)), d + 1, 1))
    return PointConfig(d, tuple(points))


def random_balanced_config(r: int, d: int, seed: int) -> PointConfig:
    """Seeded generic configuration for the balanced search: singleton colors.

    Genericity (no repeated points, no d+1 affinely dependent points for
    d = 2) is enforced by rejection resampling.
    """
    rng = random.Random(seed)
    n = (r - 1) * (d + 2) + 1

    def coord() -> Fraction:
        return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))

    while True:
        coords = [tuple(coord() for _ in range(d)) for _ in range(n)]
        if len(set(coords)) != n:
            continue
        if d == 2 and _has_collinear_triple(coords):
            continue
        break
    points = tuple(ColoredPoint(c, i, 1) for i, c in enumerate(coords))
    return PointConfig(d, points)


def _has_collinear_triple(coords) -> bool:
    for a, b, c in itertools.combinations(coords, 3):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if det == 0:
            return True
    return False
