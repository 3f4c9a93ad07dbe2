"""Request sets for the four benchmark workloads, and their output checks.

Every request is the argv of one in-process ``tverrook`` CLI call.  The
inputs are generated here from the run seed, with the standard library
only, and every check below recomputes what it compares against from those
inputs (closed forms, exact re-substitution, or values pinned in
``expected.json``); none of them calls into the package under test.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# chessboard-sweep: every column-cap composition of n - 1 for n <= SWEEP_MAX_N.
SWEEP_MAX_N = 6
# (p, k) pairs for `obstruction`; (2, 4) passes the guard but does not finish.
OBSTRUCTION_PK = ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1))
# tverberg-found: Example A seeds are a fixed contiguous range.  Its run time
# is strongly seed dependent (0.15 s to 3.3 s per seed), so a range moved by
# the run seed would change the mix from run to run; 0..11 holds slow seeds
# 6, 7, 9 and 11 as well as fast ones.
EXAMPLE_A_SEEDS = range(12)
DESK_PKD = ((2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1))
DESK_PER_PKD = 12
LIFT_PKD = (2, 2, 1)  # lift needs each colour class to weigh r - 1
# exhaustive: free-mode instances come from a window of the pinned table.
FREE_WINDOW = 40
BALANCED_PER_PASS = 15
UNAVOIDABLE_WEIGHTS = (1, 2, 1, 2, 1, 2, 1)
UNAVOIDABLE_R = 4
# Pass seeds per run seed: pass j of a run with seed s uses s * PASS_SEEDS + j.
PASS_SEEDS = 64


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


class Request:
    """One CLI call: argv, the exit code it must return and a report check.

    ``check(report)`` returns None when the output is right and a message
    otherwise.  With ``keep``, a report that passes is kept in ``report``;
    other reports are dropped so that they do not add to the peak RSS.
    ``prepare()`` (untimed) writes inputs that depend on an earlier
    request's report and returns False when that request failed.
    """

    def __init__(self, argv, exit_code, check, prepare=None, keep=False):
        self.argv = argv
        self.exit_code = exit_code
        self.check = check
        self.prepare = prepare
        self.keep = keep
        self.report = None


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def surjections(m_source: int, m_target: int):
    onto = set(range(1, m_target + 1))
    for a in itertools.product(range(1, m_target + 1), repeat=m_source):
        if set(a) == onto:
            yield a


def multiplicity_vector(p: int, k: int) -> tuple:
    return tuple(p**a for _ in range(p - 1) for a in range(k))


def prod_factorials(values) -> int:
    return math.prod(math.factorial(v) for v in values)


def expect(cond: bool, message: str):
    return None if cond else message


def _all_of(*messages):
    return next((m for m in messages if m), None)


# ---------------------------------------------------------------- sweep


def _check_pseudomanifold(report):
    rep = report["details"]["report"]
    return expect(
        report["verdict"] == "verified"
        and rep["pure"] and rep["ridge_degrees_ok"] and rep["strongly_connected"]
        and rep["offending_faces"] == [],
        "pseudomanifold audit did not verify",
    )


def _check_orient(caps):
    facets = (sum(caps) + 1) * math.factorial(sum(caps)) // prod_factorials(caps)

    def check(report):
        d = report["details"]
        return expect(
            report["verdict"] == "verified" and d["boundary_zero"] and d["facets"] == facets
            and len(report["certificate"]["chain"]) == facets,
            f"orient on {caps}: expected {facets} facets with zero boundary",
        )

    return check


def _check_degree(caps, theta):
    b = [0] * max(theta)
    for a, t in zip(caps, theta):
        b[t - 1] += a
    degree = prod_factorials(b) // prod_factorials(caps)

    def check(report):
        d = report["details"]
        return expect(
            report["verdict"] == "verified"
            and d["degree_formula"] == str(degree) and d["degree_by_counting"] == str(degree)
            and d["target_caps"] == b,
            f"collapse degree {caps} along {theta}: expected {degree}",
        )

    return check


def gaussian_binomial(n: int, h: int, p: int) -> int:
    num = den = 1
    for i in range(h):
        num *= p ** (n - i) - 1
        den *= p ** (h - i) - 1
    return num // den


def _check_obstruction(p, k, d):
    caps = multiplicity_vector(p, k)
    degree = math.factorial(p**k - 1) // prod_factorials(caps)
    subgroups = sum(gaussian_binomial(k, h, p) for h in range(k + 1))

    def check(report):
        det = report["details"]
        return expect(
            report["verdict"] == "verified" and det["degree"] == str(degree)
            and det["degree_mod_p"] == degree % p
            and det["degree_power_mod_p"] == pow(degree, d + 1, p)
            and len(det["subgroups"]) == subgroups
            and all(s["inequality_holds"] for s in det["subgroups"]),
            f"obstruction ({p},{k},{d}): expected degree {degree}, {subgroups} subgroups",
        )

    return check


def chessboard_sweep(seed: int, workdir: str, rng: random.Random) -> list:
    jobs = []
    for n in range(2, SWEEP_MAX_N + 1):
        for caps in compositions(n - 1):
            cols = ",".join(map(str, caps))
            jobs.append([Request(["chessboard", "check", "--cols", cols], 0, _check_pseudomanifold)])
            jobs.append([Request(["orient", "--cols", cols], 0, _check_orient(caps))])
            for m_target in range(1, len(caps) + 1):
                for theta in surjections(len(caps), m_target):
                    argv = ["collapse", "degree", "--caps", cols, "--theta", ",".join(map(str, theta))]
                    jobs.append([Request(argv, 0, _check_degree(caps, theta))])
    for p, k in OBSTRUCTION_PK:
        d = 1 + rng.randrange(3)
        argv = ["obstruction", "--p", str(p), "--k", str(k), "--d", str(d)]
        jobs.append([Request(argv, 0, _check_obstruction(p, k, d))])
    return jobs


# ---------------------------------------------------------------- geometry


def config_json(d: int, points) -> dict:
    """points: (coords, color, multiplicity) with Fraction coords."""
    return {
        "d": d,
        "points": [
            {"coords": [fmt(c) for c in coords], "color": color, "multiplicity": mu}
            for coords, color, mu in points
        ],
    }


def parse_points(config: dict) -> list:
    return [
        (tuple(Fraction(c) for c in pt["coords"]), pt["color"], pt.get("multiplicity", 1))
        for pt in config["points"]
    ]


def solution_error(points, d, r, solution, disjoint=False):
    """Re-substitute a reported solution with exact rationals; None if valid."""
    faces = solution["faces"]
    certs = [[Fraction(c) for c in cert] for cert in solution["certificates"]]
    witness = [Fraction(c) for c in solution["witness"]]
    if len(faces) != r or len(certs) != r or len(witness) != d:
        return "wrong number of faces, certificates or witness coordinates"
    usage = {}
    for face, cert in zip(faces, certs):
        if not face or len(face) != len(cert) or list(face) != sorted(set(face)):
            return f"malformed face {face}"
        if any(not 0 <= v < len(points) for v in face):
            return f"face {face} has an index out of range"
        if any(c < 0 for c in cert) or sum(cert) != 1:
            return f"coefficients of {face} are not convex"
        for axis in range(d):
            if sum(c * points[v][0][axis] for c, v in zip(cert, face)) != witness[axis]:
                return f"face {face} does not reach the witness"
        if len({points[v][1] for v in face}) != len(face):
            return f"face {face} is not rainbow"
        for v in face:
            usage[v] = usage.get(v, 0) + 1
    if disjoint and any(u > 1 for u in usage.values()):
        return "faces are not pairwise vertex disjoint"
    if any(u > points[v][2] for v, u in usage.items()):
        return "a vertex is used beyond its multiplicity"
    return None


def example_a_points(p: int, k: int, d: int, epsilon: Fraction, seed: int) -> list:
    """The clustered simplex-plus-barycenter configuration, rebuilt from its definition:
    colour i holds the multiplicity vector at anchor A_i (A_0 = 0, A_i = 3 e_i),
    each point moved by epsilon * randint(-100, 100)/100 per axis in seed order,
    and the barycenter is the single exceptional point."""
    rng = random.Random(seed)
    anchors = [tuple(Fraction(3 if axis == i - 1 else 0) for axis in range(d)) for i in range(d + 1)]
    points = []
    for color in range(d + 1):
        for mu in multiplicity_vector(p, k):
            offset = [epsilon * Fraction(rng.randint(-100, 100), 100) for _ in range(d)]
            points.append((tuple(a + o for a, o in zip(anchors[color], offset)), color, mu))
    barycenter = tuple(sum(a[axis] for a in anchors) / (d + 1) for axis in range(d))
    points.append((barycenter, d + 1, 1))
    return points


def _check_example_a(seed):
    p, k, d, eps = 2, 2, 2, Fraction(1, 100)
    points = example_a_points(p, k, d, eps, seed)

    def check(report):
        cert = report["certificate"]
        if report["verdict"] != "found" or report["seed"] != seed:
            return f"example-a seed {seed}: verdict {report['verdict']}"
        if parse_points(cert["config"]) != points:
            return f"example-a seed {seed}: reported configuration differs from the definition"
        return solution_error(points, d, p**k, cert["solution"])

    return check


def desk_points(rng: random.Random, p: int, k: int, d: int) -> list:
    def coord():
        return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))

    points = [
        (tuple(coord() for _ in range(d)), color, mu)
        for color in range(d + 1)
        for mu in multiplicity_vector(p, k)
    ]
    points.append((tuple(coord() for _ in range(d)), d + 1, 1))
    return points


def write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _check_found(points, d, r, global_seed):
    def check(report):
        if report["verdict"] != "found" or report["seed"] != global_seed:
            return f"expected found, got {report['verdict']}"
        return solution_error(points, d, r, report["certificate"])

    return check


def _lift_request(lift_path, points, d, r, search):
    """`lift` on the solution that the `search` request returned."""
    def prepare():
        if search.report is None:
            return False
        write_json(lift_path, {"config": config_json(d, points), "solution": search.report["certificate"], "r": r})
        return True

    def check(report):
        solved = search.report["certificate"]
        cert = report["certificate"]
        lifted = parse_points(cert["config"])
        projection = {int(k): v for k, v in cert["projection"].items()}
        if sorted(projection) != list(range(len(lifted))):
            return "lift projection does not cover the lifted vertices"
        for lv, (coords, color, mu) in enumerate(lifted):
            if mu != 1 or (coords, color) != points[projection[lv]][:2]:
                return f"lifted vertex {lv} does not project onto its image"
        sol = cert["solution"]
        if sol["witness"] != solved["witness"]:
            return "lift changed the witness"
        projected = sorted(sorted({projection[v] for v in f}) for f in sol["faces"])
        if projected != sorted(solved["faces"]):
            return "lifted faces do not project onto the solution"
        return solution_error(lifted, d, r, sol, disjoint=True)

    return Request(["lift", "--json", lift_path], 0, check, prepare=prepare)


def tverberg_found(seed: int, workdir: str, rng: random.Random) -> list:
    jobs = []
    for s in EXAMPLE_A_SEEDS:
        argv = ["--seed", str(s), "example-a", "--p", "2", "--k", "2", "--d", "2", "--epsilon", "1/100"]
        jobs.append([Request(argv, 0, _check_example_a(s))])
    for p, k, d in DESK_PKD:
        r = p**k
        for j in range(DESK_PER_PKD):
            points = desk_points(random.Random(f"desk:{seed}:{p}:{k}:{d}:{j}"), p, k, d)
            name = os.path.join(workdir, f"desk-{p}-{k}-{d}-{j}")
            path = write_json(f"{name}.json", dict(config_json(d, points), r=r, mode="prime-power-1.3"))
            lift = (p, k, d) == LIFT_PKD
            search = Request(["--seed", str(j), "tverberg", "search", "--json", path], 0,
                             _check_found(points, d, r, j), keep=lift)
            job = [search]
            if lift:
                job.append(_lift_request(f"{name}-lift.json", points, d, r, search))
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------- exhaustive


def free_instance(instance_seed: int) -> dict:
    """Small free-mode instance: d <= 2, r <= 3, at most 6 points."""
    rng = random.Random(instance_seed)
    d = rng.choice([1, 2])
    r = rng.choice([2, 3])
    n = rng.randint(3, 6 if r == 2 else 5)
    num_colors = rng.randint(2, n)
    colors = sorted(rng.choices(range(num_colors), k=n - num_colors) + list(range(num_colors)))
    points = [
        (
            tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(d)),
            colors[i],
            rng.randint(1, 2),
        )
        for i in range(n)
    ]
    disjointness = rng.choice(["multiset-proper", "vertex-disjoint"])
    return {"d": d, "r": r, "points": points, "disjointness": disjointness}


def free_window(seed: int, table_size: int) -> list:
    return [(seed * FREE_WINDOW + j) % table_size for j in range(FREE_WINDOW)]


def _check_free(inst, expected_verdict, instance_seed):
    def check(report):
        if report["verdict"] != expected_verdict or report["seed"] != instance_seed:
            return f"free instance {instance_seed}: expected {expected_verdict}, got {report['verdict']}"
        if expected_verdict == "found":
            return solution_error(
                inst["points"], inst["d"], inst["r"], report["certificate"],
                disjoint=inst["disjointness"] == "vertex-disjoint",
            )
        return None

    return check


def balanced_points(rng: random.Random) -> list:
    """Five generic points in the plane, one per colour (r = 2, d = 2)."""
    def coord():
        return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))

    while True:
        coords = [(coord(), coord()) for _ in range(5)]
        if len(set(coords)) < 5:
            continue
        if any(
            (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
            for a, b, c in itertools.combinations(coords, 3)
        ):
            continue
        return [(c, i, 1) for i, c in enumerate(coords)]


def _check_literal_refuted(report):
    # literal-k with k = 1, s = 0 admits only single vertices, and two
    # distinct points never meet, so every such instance is refuted.
    return expect(
        report["verdict"] == "refuted" and report["details"]["mode"] == "balanced-1.6",
        f"literal-k balanced search: expected refuted, got {report['verdict']}",
    )


def _check_unavoidable(removed):
    weight = sum(UNAVOIDABLE_WEIGHTS[v] for v in removed)

    def check(report):
        # Every non-face of the full simplex on V - S meets S, and S carries
        # weight m(S) <= r - 1 < r, so no proper r-collection avoids it.
        d = report["details"]
        return expect(
            report["verdict"] == "verified" and d["m_weight"] == weight
            and d["hypothesis_holds"] and d["unavoidable"],
            f"removal set {removed}: expected unavoidable with m(S) = {weight}",
        )

    return check


def exhaustive(seed: int, workdir: str, rng: random.Random) -> list:
    free_expected = load_expected()["free_mode"]
    jobs = []
    for s in free_window(seed, len(free_expected)):
        inst = free_instance(s)
        path = write_json(
            os.path.join(workdir, f"free-{s}.json"),
            dict(config_json(inst["d"], inst["points"]), r=inst["r"], mode="free",
                 disjointness=inst["disjointness"]),
        )
        verdict = free_expected[s]
        argv = ["--seed", str(s), "tverberg", "search", "--json", path]
        jobs.append([Request(argv, 0 if verdict == "found" else 2, _check_free(inst, verdict, s))])
    for j in range(BALANCED_PER_PASS):
        points = balanced_points(random.Random(f"balanced:{seed}:{j}"))
        path = write_json(
            os.path.join(workdir, f"balanced-{j}.json"),
            dict(config_json(2, points), r=2, dim_caps={"k": 1, "s": 0, "policy": "literal-k"}),
        )
        jobs.append([Request(["--seed", str(j), "balanced", "search", "--json", path], 1,
                             _check_literal_refuted)])
    weights = UNAVOIDABLE_WEIGHTS
    multiset = {"vertices": list(range(len(weights))),
                "multiplicity": {str(v): w for v, w in enumerate(weights)}}
    for size in range(len(weights) + 1):
        for removed in itertools.combinations(range(len(weights)), size):
            if sum(weights[v] for v in removed) > UNAVOIDABLE_R - 1:
                continue
            avoid = list(removed)
            rng.shuffle(avoid)
            path = write_json(
                os.path.join(workdir, f"unavoidable-{'-'.join(map(str, removed)) or 'none'}.json"),
                {"multiset": multiset, "r": UNAVOIDABLE_R, "avoid_set": avoid},
            )
            jobs.append([Request(["unavoidable", "check", "--json", path], 0, _check_unavoidable(removed))])
    return jobs


# ---------------------------------------------------------------- homology


def standard_facets(m: int, n: int) -> list:
    """Facets of M(m, n): maximal rook placements, cell id (row-1)*m + (col-1)."""
    if m <= n:
        return [[r * m + c for c, r in enumerate(rows)] for rows in itertools.permutations(range(n), m)]
    return [sorted(r * m + c for r, c in enumerate(cols)) for cols in itertools.permutations(range(m), n)]


def pm_facets(caps) -> list:
    """Facets of the pseudomanifold-family board: omit a row, fill every column."""
    m, n = len(caps), sum(caps) + 1
    word = [c for c, cap in enumerate(caps) for _ in range(cap)]
    facets = []
    for omitted in range(n):
        rows = [r for r in range(n) if r != omitted]
        for cols in sorted(set(itertools.permutations(word))):
            facets.append(sorted(r * m + c for r, c in zip(rows, cols)))
    return facets


def standard_face_counts(m: int, n: int) -> list:
    return [math.comb(m, k) * math.comb(n, k) * math.factorial(k) for k in range(min(m, n) + 1)]


def pm_face_counts(caps) -> list:
    n = sum(caps) + 1
    counts = []
    for k in range(sum(caps) + 1):
        words = sum(
            math.factorial(k) // prod_factorials(c)
            for c in itertools.product(*(range(cap + 1) for cap in caps))
            if sum(c) == k
        )
        counts.append(math.comb(n, k) * words)
    return counts


def reduced_euler(counts) -> int:
    """counts[k] = number of faces with k vertices (k = 0 is the empty face)."""
    return sum((-1) ** (k - 1) * c for k, c in enumerate(counts))


JOIN_PARTS = ((2, 3), (2, 4))


def ladder_complexes() -> list:
    """(name, universe size, facets, reduced Euler characteristic)."""
    out = []
    # Small boards (points and graphs) keep the large rungs under a tenth of
    # the requests, so that p90 falls among the 30-60 ms rungs, not between.
    shapes = [(m, n) for m in range(1, 5) for n in range(m, 7)] + [(5, 5)]
    shapes += [(1, n) for n in range(7, 11)] + [(2, n) for n in range(7, 10)]
    shapes += [(n, m) for m, n in shapes if m < n and (n <= 4 or m <= 2)]
    for m, n in shapes:
        out.append((f"M{m}x{n}", m * n, standard_facets(m, n), reduced_euler(standard_face_counts(m, n))))
    for total in range(1, 5):
        for caps in compositions(total):
            name = "L" + "-".join(map(str, caps))
            size = len(caps) * (total + 1)
            out.append((name, size, pm_facets(caps), reduced_euler(pm_face_counts(caps))))
    (m1, n1), (m2, n2) = JOIN_PARTS
    left, right = standard_facets(m1, n1), standard_facets(m2, n2)
    offset = m1 * n1
    facets = [f + [v + offset for v in g] for f in left for g in right]
    chi = -reduced_euler(standard_face_counts(m1, n1)) * reduced_euler(standard_face_counts(m2, n2))
    out.append((f"J{m1}x{n1}*{m2}x{n2}", offset + m2 * n2, facets, chi))
    return out


# connectivity is not requested on these: one SNF of M(5,5) is most of a pass.
NO_CONNECTIVITY = {"M5x5"}


def _check_homology(name, pinned, chi):
    def check(report):
        profile = report["details"]["profile"]
        betti = [row["betti"] for row in profile]
        torsion = [row["torsion"] for row in profile]
        euler = sum((-1) ** q * b for q, b in enumerate(betti))
        return _all_of(
            expect(betti == pinned["betti"] and torsion == pinned["torsion"],
                   f"{name}: homology {betti} {torsion} differs from the pinned values"),
            expect(euler == chi, f"{name}: Betti numbers give Euler characteristic {euler}, not {chi}"),
        )

    return check


def connectivity_level(pinned) -> int:
    """The highest level through which the pinned homology vanishes, plus one
    when that still lies inside the complex, so some requests are refuted."""
    level = -1
    for b, t in zip(pinned["betti"], pinned["torsion"]):
        if b or t:
            break
        level += 1
    return min(level + 1, len(pinned["betti"]) - 1)


def _check_connectivity(name, pinned, level):
    want = all(
        b == 0 and not t for b, t in list(zip(pinned["betti"], pinned["torsion"]))[: level + 1]
    )

    def check(report):
        return expect(
            report["details"]["homologically_connected"] == want
            and report["verdict"] == ("verified" if want else "refuted"),
            f"{name}: connectivity at level {level} should be {want}",
        )

    return check, want


def homology_ladder(seed: int, workdir: str, rng: random.Random) -> list:
    pinned_all = load_expected()["homology"]
    jobs = []
    for name, size, facets, chi in ladder_complexes():
        # The seed orders facets and vertices in the file only.  Relabelling
        # vertices would change the elimination order of the Smith form
        # (1.9 s to 2.9 s on M(4,6)), which would make runs incomparable.
        facets = [list(f) for f in facets]
        for f in facets:
            rng.shuffle(f)
        rng.shuffle(facets)
        universe = list(range(size))
        rng.shuffle(universe)
        path = write_json(os.path.join(workdir, f"{name}.json"), {"universe": universe, "facets": facets})
        pinned = pinned_all[name]
        jobs.append([Request(["homology", "--json", path], 0, _check_homology(name, pinned, chi))])
        if name not in NO_CONNECTIVITY:
            level = connectivity_level(pinned)
            check, want = _check_connectivity(name, pinned, level)
            argv = ["connectivity", "--json", path, "--level", str(level)]
            jobs.append([Request(argv, 0 if want else 1, check)])
    return jobs


BUILDERS = {
    "chessboard-sweep": chessboard_sweep,
    "tverberg-found": tverberg_found,
    "exhaustive": exhaustive,
    "homology-ladder": homology_ladder,
}


def pass_seed(seed: int, part: int) -> int:
    """The seed of pass ``part`` of a run with ``seed``; passes of one run
    see different inputs, so that a run averages over more of them."""
    return seed * PASS_SEEDS + part


def build(workload: str, seed: int, part: int, workdir: str) -> list:
    """The requests of pass ``part``, in a seed-shuffled order of dependent groups."""
    seed = pass_seed(seed, part)
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](seed, workdir, rng)
    rng.shuffle(jobs)
    return [req for job in jobs for req in job]
