"""Host-speed probe, and times scaled to a host of fixed speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, while process CPU time stays equal to wall time.
The drift is common to everything the process runs: a fixed pure-Python
task timed right next to a request slows down and speeds up with it.  So
a pass times ``probe`` between requests, and every ``TICK_S`` inside a long
request (from a timer signal; the probe time is taken out of the request's
latency).  Every time the benchmark reports is scaled by
``NOMINAL_PROBE_S / (the probe's local median)``.  A
scaled time reads as the time on a host where the probe takes exactly
``NOMINAL_PROBE_S``.  The probe is benchmark code, not package code, so a
change to the package moves a scaled time exactly as much as a raw one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_PROBE_S = 0.001  # the probe takes about this long on the reference machine
WINDOW_S = 0.25  # probes this close to a request's start or end set its speed,
WINDOW_SHARE = 0.5  # or this share of the request's own length, if that is longer
TICK_S = 0.05  # inside a request, probe this often (so about 2% of its time)


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction, dict and integer work."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = [i] * 3
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - start


def burst(count: int) -> list:
    return [probe() for _ in range(count)]


def scale(probes) -> float:
    """The factor that turns a time measured next to these probes into a scaled one."""
    return NOMINAL_PROBE_S / statistics.median(probes)


class SpeedLog:
    """Probes taken during a pass, each at the moment it ended.

    ``start_ticking`` and ``stop_ticking`` bracket a request.  While it runs
    longer than ``TICK_S``, a SIGALRM handler probes every ``TICK_S``;
    ``ticked`` is the time those probes took, to be taken out of the
    request's latency.
    """

    def __init__(self):
        self.at = []
        self.took = []
        self.ticked = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def sample(self):
        took = probe()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        self.sample()
        self.ticked += time.perf_counter() - entered

    def start_ticking(self):
        self.ticked = 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticking(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: probes within the window around it, and at
        least the last one before it and the first one after it."""
        window = max(WINDOW_S, WINDOW_SHARE * (end - start))
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        lo = min(lo, max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.at, end) + 1, len(self.at)))
        return scale(self.took[lo:hi])

    def pass_factor(self) -> float:
        return scale(self.took)
