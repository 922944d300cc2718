"""Reference clock: measures times in units of a fixed reference computation.

On a shared 2-core VM the CPU speed drifts between regimes up to 1.7x apart
that last from seconds to minutes, so raw wall times of the same code spread
by 15-40% from run to run.  ``RefClock`` runs a fixed computation (exact
fractions and dicts, independent of orbit-atlas) from a ``SIGALRM``
handler every ``interval`` seconds while a workload runs, and expresses an
interval of the workload as a number of reference computations: its
duration times the mean reference rate (1 / reference duration) over the
samples taken in it.  That ratio follows the code far more than the
regime: its run-to-run spread was 2-6% where raw time spread 15-40%,
though the slowest operations slow less than the reference and are
corrected less well.  The handler's own time is excluded: ``now()`` is a
clock that stops while the handler runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction


def reference_work() -> None:
    """The unit of measure: exact fractions and tuple-keyed dicts, the
    interpreter work orbit-atlas itself does.  Never change it, or old
    results stop comparing."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 7, i % 5, (i * 3) % 11)
        table[key] = table.get(key, 0) + (i * i) % 1009
    sorted(table.items())


class RefClock:
    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.starts: list[float] = []       # sample start times, on now()
        self.durations: list[float] = []
        self.spent = 0.0                    # total time inside the handler
        self._previous = None

    def now(self) -> float:
        """perf_counter minus the time spent on reference samples."""
        return time.perf_counter() - self.spent

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_work()
        duration = time.perf_counter() - start
        self.starts.append(start - self.spent)
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self) -> "RefClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rate(self, t0: float, t1: float, window: float = 1.0) -> float:
        """Reference computations per second over [t0, t1] (``now()``
        times), widened to ``window`` seconds around its middle so that a
        short interval still averages several samples; the nearest sample
        when none was taken inside."""
        pad = max(0.0, (window - (t1 - t0)) / 2)
        t0, t1 = t0 - pad, t1 + pad
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        if hi == lo:
            before, after = max(lo - 1, 0), min(lo, len(self.starts) - 1)
            nearest = (after if self.starts[after] - t1 < t0 - self.starts[before]
                       else before)
            lo, hi = nearest, nearest + 1
        return sum(1.0 / d for d in self.durations[lo:hi]) / (hi - lo)

    def unit_s(self) -> float:
        """Median duration of one reference computation, in seconds."""
        return statistics.median(self.durations)
