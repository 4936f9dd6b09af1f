"""Sample how fast the core is while a workload runs.

The machines this benchmark runs on share their cores with other tenants,
and a core's speed can drop by up to 1.8x for anything from a fraction of a
second to minutes.  While a workload runs, ``SpeedSampler`` interrupts it
every ``PERIOD_S`` (SIGALRM) to time a fixed reference routine.  Each
operation is then scaled by ``(nominal / median reference time) ** exponent``
over the samples within ``WINDOW_S`` of it, which converts its seconds into
seconds on a core where the reference takes exactly its nominal time.

Contention slows different kinds of work by different amounts, so each
workload is scaled by the routine that resembles it: ``lp_like`` (small
tuples, floats, dict stores, calls and 2x2 solves, as in the LP and program
builders) for the analytic workloads, and ``records_like`` (CSV parsing,
string-to-number conversion and numpy counting, as in the record path) for
the dataset workload.  The nominal times are about each routine's time on an
uncontended core of a 2.1 GHz Xeon guest, so scaled seconds read close to
that core's seconds.  The exponent is how strongly the workload's time follows
its reference's: the analytic workloads follow ``lp_like`` one for one, while
the dataset pass, which walks hundreds of MB, grows only as about the 0.7th
power of ``records_like`` (fitted over ten runs on that host).  The routines
and constants are part of the benchmark's definition and never change with
the program under test.
"""

from __future__ import annotations

import bisect
import csv
import functools
import gc
import io
import signal
import statistics
import time
from array import array


def _pair(x, y):
    return (x * 0.5 + y, x - y)


def lp_like():
    acc = 0.0
    memo = {}
    for i in range(400):
        t = tuple(float(j) * 1.5 for j in range(4))
        a, b = _pair(t[0] + i, t[3])
        memo[i & 15] = (a, b)
        acc += max(a, b) - min(t)
    m0, m1 = (0.3, -0.6, 0.7, -0.4), (0.2, -0.1, 0.8, -0.9)
    best = None
    for _ in range(30):
        for k in range(4):
            for l in range(k + 1, 4):
                det = m0[k] * m1[l] - m0[l] * m1[k]
                p = [0.0, 0.0, 0.0, 0.0]
                p[k] = (m1[l] - m0[l]) / det
                p[l] = (m0[k] - m1[k]) / det
                v = tuple(round(x, 12) for x in p)
                if best is None or v < best:
                    best = v
    return acc, best


@functools.cache
def _records_text(n: int = 2_000) -> str:
    import numpy as np

    rng = np.random.default_rng(7)
    y = rng.choice([-1, 1], n)
    a = rng.integers(0, 2, n)
    score = rng.random(n)
    return "y,a,a_c,score,yhat\n" + "".join(
        f"{y[i]},{a[i]},,{score[i]:.12g},{1 if score[i] > 0.5 else -1}\n" for i in range(n))


def records_like():
    import numpy as np

    rows = list(csv.reader(io.StringIO(_records_text())))[1:]
    cols = [[] for _ in range(5)]
    for row in rows:
        for k, v in enumerate(row):
            cols[k].append(v.strip())
    y = np.asarray([int(v) for v in cols[0]], dtype=np.int8)
    score = np.asarray([float(v) for v in cols[3]])
    table = np.zeros((2, 2))
    np.add.at(table, ((y == -1).astype(np.intp), (score > 0.5).astype(np.intp)), 1.0)
    return table


#: Reference routine, its nominal seconds and the exponent, per workload.
REFERENCES = {
    "sweep-presets": (lp_like, 0.001, 1.0),
    "derive-single": (lp_like, 0.001, 1.0),
    "dataset-1e6": (records_like, 0.002, 0.7),
}

PERIOD_S = 0.1
WINDOW_S = 0.5


class SpeedSampler:
    """Times the workload's reference routine every ``PERIOD_S`` while active.

    ``clock()`` is ``time.perf_counter`` minus the time spent sampling, so
    intervals read from it exclude the sampler's interruptions.  Use it for
    every timing taken while the sampler is active.
    """

    def __init__(self, workload: str):
        self.routine, self.nominal_s, self.exponent = REFERENCES[workload]
        self.routine()  # build its input and warm it up outside any sample
        self.overhead = 0.0
        self.times = array("d")
        self.durations = array("d")
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        while True:
            overhead = self.overhead
            now = time.perf_counter()
            if overhead == self.overhead:
                return now - overhead

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection here would sweep the workload's heap
        try:
            t0 = time.perf_counter()
            self.routine()
            duration = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(start - self.overhead)
        self.durations.append(duration)
        self.overhead += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval of ``clock()`` readings."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return (self.nominal_s / statistics.median(self.durations[lo:hi])) ** self.exponent
