"""A host-speed probe that runs beside the timed work.

On a virtual machine whose host is shared with other tenants, the speed of a
virtual CPU can drift by 1.5x or more over seconds to minutes, while the guest
kernel sees none of it: steal time stays 0 and process CPU time equals wall
time.  Plain wall time then measures the neighbours as much as the program.

The probe measures that speed while the workload runs.  Every INTERVAL_S a
SIGALRM handler runs a fixed piece of exact arithmetic (`probe_work`, the
same kind of Fraction elimination the package does) and records how long it
took.  `scaled` turns an interval of wall time into the time it would have
taken at the reference speed, where `probe_work` takes REF_S: it leaves out
the probe's own time and multiplies by REF_S over the mean probe time around
the interval.  The program's code does not run inside the probe, so a change
to the program moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.05
REF_S = 3e-4  # about what probe_work takes on an uncontended 2-vCPU Xeon guest, Python 3.11
MIN_SAMPLES = 20  # an interval with fewer samples borrows its neighbours'


def probe_work():
    n = 5
    m = [[Fraction((7 * i + 3 * j) % 11 + 5 * (i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


class Probe:
    """Samples the host's speed on a timer while the `with` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        # a collection started by the probe's allocations would charge the
        # program's garbage to the probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self):
        # samples taken now, and again at exit, let even the shortest run be scaled
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end) of wall time would take at the reference speed."""
        lo = i = bisect_left(self.starts, start)
        hi = k = bisect_left(self.starts, end)
        while hi - lo < MIN_SAMPLES:  # widen to the nearest samples on both sides
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        own = sum(self.times[i:k])
        return (end - start - own) * REF_S / statistics.fmean(self.times[lo:hi])
