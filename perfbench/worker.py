"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED PART TRACE SPAWNED [--setup-only]

PART is the pass's number within its run; it selects the pass's inputs.

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process (the same monotonic clock on Linux), so ``setup_s`` runs from
interpreter start through the import, input generation and file writing to
the first request.  Each pass runs in its own process so that no pass sees
another's ``lru_cache`` entries.

The pass times ``speed.probe`` right after set-up, before the first request,
after every request and, in an untraced pass, every ``speed.TICK_S`` inside
a long request.  It reports each latency, without the probes inside it, both
as measured and scaled to a host of fixed speed (``speed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tverrook import cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_MESSAGES = 5
SPEED_PROBES = 5  # speed probes right after set-up, for the scale of setup_s


def run_pass(workload: str, seed: int, part: int, trace: bool, spawned: float, setup_only: bool) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        requests = workloads.build(workload, seed, part, workdir)
        setup_s = time.perf_counter() - spawned
        setup_probes = speed.burst(SPEED_PROBES)
        if setup_only:
            return {"setup_s": setup_s, "setup_probes_s": setup_probes}
        tracer = tracing.Tracer() if trace else None
        main = cli.main
        if tracer is not None:
            tracer.install()
            main = tracer.wrap("cli.main", cli.main)
        log = speed.SpeedLog()
        log.sample()
        spans, messages = [], []
        failed = 0
        for req in requests:
            if req.prepare is not None and not req.prepare():
                failed += 1  # the request it depends on failed
                continue
            out, err = io.StringIO(), io.StringIO()
            if tracer is None:  # probes inside spans would add to the layer times
                log.start_ticking()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(req.argv)
            except Exception as exc:  # a traceback is a failed request, not a failed pass
                code, problem = None, f"raised {type(exc).__name__}: {exc}"
            log.stop_ticking()
            spans.append((start, time.perf_counter(), log.ticked))
            log.sample()
            if code is not None:
                problem = _judge(req, code, out.getvalue())
            if problem is not None:
                failed += 1
                if len(messages) < MAX_MESSAGES:
                    messages.append(f"{' '.join(req.argv)}: {problem}")
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result = {
            "setup_s": setup_s,
            "setup_probes_s": setup_probes,
            "attempted": len(requests),
            "latencies_s": [end - start - ticked for start, end, ticked in spans],
            "scaled_latencies_s": [(end - start - ticked) * log.factor(start, end) for start, end, ticked in spans],
            "probe_median_s": statistics.median(log.took),
            "failed": failed,
            "messages": messages,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics(log.pass_factor())
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _judge(req, code: int, stdout: str):
    """None when the request returned the right exit code and output."""
    if code != req.exit_code:
        return f"exit code {code}, expected {req.exit_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    try:
        problem = req.check(report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"report has an unexpected shape: {type(exc).__name__}: {exc}"
    if problem is None and req.keep:
        req.report = report
    return problem


if __name__ == "__main__":
    workload, seed, part = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace, spawned = sys.argv[4] == "1", float(sys.argv[5])
    print(json.dumps(run_pass(workload, seed, part, trace, spawned, "--setup-only" in sys.argv[6:])))
