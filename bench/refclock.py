"""Time measured in durations of a fixed reference computation.

The benchmark's host shares its cores with other tenants. For stretches from
a second to several minutes the same Python code runs up to 1.7 times
slower, so seconds measured in one run can differ from the next by more than
any bound worth setting. A case's time divided by the time the host took,
at the same moments, for a fixed computation that lives in the benchmark is
steady under that contention, and still falls in proportion when the
program gets faster.

While `RefClock.running()` is active, a timer interrupts the process every
SAMPLE_S seconds and times `reference()`; callers also take a sample right
before each case, so that every case's window holds a sample.
`ratio(t0, t1, seconds)` divides a case's seconds by the mean reference
duration sampled between t0 and t1. The time spent sampling
is added to `spent`, so that callers can take it out of their timings.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

SAMPLE_S = 0.1


def reference() -> int:
    """Fixed pure-Python work of the program's kinds: rational elimination,
    big-integer products, tuples and dicts. About a millisecond."""
    n = 6
    a = [[Fraction((3 * i + 5 * j) % 7 - 3) + (8 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = a[j][i] / a[i][i]
            for t in range(i, n):
                a[j][t] -= f * a[i][t]
    big = 1
    for k in range(1, 60):
        big = big * (k * 7919 + 1) // k + 1
    rows = tuple(tuple((i * j) % 5 for j in range(12)) for i in range(12))
    cols = tuple(zip(*rows))
    prod = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in rows)
    seen = {}
    for i, row in enumerate(prod):
        seen[row] = seen.get(row, 0) + i
    return int(a[n - 1][n - 1] * 100) + big % 97 + len(seen)


class RefClock:
    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.durations: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self, *_signal_args):
        if self._sampling:  # the timer fired during a sample taken by hand
            return
        self._sampling = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def ratio(self, t0: float, t1: float, seconds: float) -> float:
        """seconds over the mean reference duration sampled in [t0, t1]."""
        window = self.durations[bisect.bisect_left(self.times, t0):bisect.bisect_right(self.times, t1)]
        return seconds / (sum(window) / len(window))

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
