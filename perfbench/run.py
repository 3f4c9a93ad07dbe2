"""tverrook benchmark: closed-loop CLI requests, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats passes of the workload, each in a fresh interpreter
(``worker.py``), until ``--seconds`` are used, and then prints one JSON
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every time is scaled to a host of fixed speed by a probe timed
next to it (``speed.py``); the line before the result gives the unscaled
values.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9  # extra set-up-only processes per run, for the setup_s median
SPAWN_PROBES = 5  # speed probes just before each process starts, for its setup_s scale
MIN_REQUESTS = 100  # so that at least ten latency samples lie above p90
RUN_LIMIT_S = 170.0  # the whole run, children included, must end within this


def spawn(workload: str, seed: int, part: int, trace: bool, setup_only: bool, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(part), "1" if trace else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = speed.burst(SPAWN_PROBES)
    spawned = time.perf_counter()
    argv.append(repr(spawned))
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["scaled_setup_s"] = result["setup_s"] * speed.scale(before + result["setup_probes_s"])
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Passes until the time is used; returns (setup-only results, passes)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    probes = [spawn(workload, seed, 0, False, True, deadline) for _ in range(SETUP_PROBES)]
    passes, durations = [], []
    while True:
        # A traced run alternates untraced and traced passes for the overhead
        # ratio; both passes of a pair get the same inputs.
        traced = trace and len(passes) % 2 == 1
        part = len(passes) // 2 if trace else len(passes)
        began = time.perf_counter()
        passes.append((traced, spawn(workload, seed, part, traced, False, deadline)))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = sum(p["attempted"] for _, p in passes) >= MIN_REQUESTS and (not trace or len(passes) >= 2)
        if enough and elapsed + 0.5 * statistics.median(durations) > seconds:
            return probes, passes


def end_to_end(probes, passes, scaled=True) -> dict:
    """The end-to-end metrics; with ``scaled=False`` from the unscaled times."""
    latencies = [s for _, p in passes for s in p["scaled_latencies_s" if scaled else "latencies_s"]]
    setups = [p["scaled_setup_s" if scaled else "setup_s"] for p in probes + [p for _, p in passes]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "verdict_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "verdict_p90_ms": (1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (statistics.median([p["maxrss_kb"] for _, p in passes]) / 1024, "MB"),
    }


def per_layer(passes) -> dict:
    traced = [p for t, p in passes if t]
    plain = [p for t, p in passes if not t]
    out = {
        name: (statistics.median([p["layers"][name] for p in traced]), unit)
        for name, unit in tracing.PER_LAYER.items()
    }
    traced_s = statistics.median([sum(p["scaled_latencies_s"]) for p in traced])
    plain_s = statistics.median([sum(p["scaled_latencies_s"]) for p in plain])
    out["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    attempted = sum(p["attempted"] for _, p in passes)
    out["failed_frac"] = (sum(p["failed"] for _, p in passes) / attempted, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tverrook", "cli.py")):
        print(f"no tverrook sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        probes, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass

    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    metrics = per_layer(passes) if args.trace else end_to_end(probes, passes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "latency_samples": sum(len(p["latencies_s"]) for _, p in passes),
        "pass_cpu_s": [round(p["cpu_s"], 3) for _, p in passes],
        "probe_median_s": [round(p["probe_median_s"], 6) for _, p in passes],
        "unscaled": {name: value for name, (value, _) in end_to_end(probes, passes, scaled=False).items()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "failures": [m for _, p in passes for m in p["messages"]][:10],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
