"""Regenerate expected.json, the pinned answers the benchmark checks against.

Run once from the repository root, on code whose tier-1 tests pass:

    PYTHONPATH=src:tests python3 perfbench/pin_expected.py

* ``free_mode[s]`` is "found" or "exhausted" for free-mode instance seed s,
  decided by the unpruned brute-force enumerator in ``tests/oracles.py``.
* ``homology[name]`` holds the reduced Betti numbers and torsion of each
  homology-ladder complex.  They are accepted only if they agree with the
  reduced Euler characteristic from closed-form face counts and with the
  known values: M(2,3) is a circle, M(3,4) a torus, and H_2(M(5,5)) = Z/3
  (Shareshian and Wachs, Adv. Math. 212, 2007).
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from oracles import naive_search_all  # noqa: E402
from tverrook import ColoredPoint, PointConfig, TverbergInstance, betti_and_torsion  # noqa: E402
from tverrook.simplicial import build_complex  # noqa: E402

FREE_TABLE = 1000
KNOWN = {
    "M2x3": ([0, 1], [[], []]),
    "M3x4": ([0, 2, 1], [[], [], []]),
    "M5x5": ([0, 0, 0, 56, 0], [[], [], [3], [], []]),
}


def free_verdict(seed: int) -> str:
    inst = workloads.free_instance(seed)
    points = tuple(ColoredPoint(c, color, mu) for c, color, mu in inst["points"])
    instance = TverbergInstance(PointConfig(inst["d"], points), inst["r"], disjointness=inst["disjointness"])
    return "found" if naive_search_all(instance) else "exhausted"


def homology_pins() -> dict:
    pins = {}
    for name, size, facets, chi in workloads.ladder_complexes():
        profile = betti_and_torsion(build_complex(range(size), facets))
        betti = list(profile.betti)
        torsion = [list(t) for t in profile.torsion]
        if sum((-1) ** q * b for q, b in enumerate(betti)) != chi:
            raise SystemExit(f"{name}: Betti numbers disagree with the Euler characteristic {chi}")
        if name in KNOWN and (betti, torsion) != KNOWN[name]:
            raise SystemExit(f"{name}: {betti} {torsion} differs from the known homology")
        pins[name] = {"betti": betti, "torsion": torsion}
        print(name, betti, torsion, file=sys.stderr)
    return pins


def main():
    data = {
        "homology": homology_pins(),
        "free_mode": [free_verdict(s) for s in range(FREE_TABLE)],
    }
    with open(os.path.join(workloads.HERE, "expected.json"), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    found = data["free_mode"].count("found")
    print(f"free mode: {found} found, {FREE_TABLE - found} exhausted", file=sys.stderr)


if __name__ == "__main__":
    main()
