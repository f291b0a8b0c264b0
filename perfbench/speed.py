"""The speed of the core this process runs on, sampled while items run.

On a shared 2-core box the same item takes up to 1.8x longer in some
minutes than in others, so raw times of runs made minutes apart do not
agree within a 25 % bound.  ``SpeedProbe`` runs a fixed
exact-rational kernel (stdlib ``Fraction`` arithmetic: the kind of work the
program does, but none of its code) from a SIGALRM handler every
``interval_s`` seconds on the benchmark's own thread, and records how long
each run of the kernel took.  An item's time, less the kernel's own time,
times the core's relative speed over that item is its time at the
reference speed.  Over 20-second windows that figure varied by 1-2 %
where the raw time varied by 5-10 %; a sampler on the other core did not
track at all, since the slowdown is per core.  A program that gets faster
does not change the kernel, so the figure still shows it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Kernel time at the reference speed: the median on a 2-core Xeon box
# (Python 3.11) in its faster minutes.  Only a scale: every time is divided
# by the same constant at every commit.
REFERENCE_KERNEL_S = 0.0005


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    return acc


class SpeedProbe:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        kernel()  # the first call in a process pays for cold caches
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the kernel itself took within [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """The core's mean speed over [t0, t1) relative to the reference.

        Samples are evenly spaced in wall time, so the mean of reference
        over measured kernel time is the share of reference-speed work each
        wall second did, also when the core switches speed within the
        window.  A window shorter than two samples borrows the samples just
        before and after it.
        """
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            return 1.0
        return statistics.fmean(REFERENCE_KERNEL_S / d for d in self.durations[lo:hi])
