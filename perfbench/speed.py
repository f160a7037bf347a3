"""A gauge of how fast the machine runs pure-Python code during a run.

The machine the benchmark was made on is shared with other tenants.  The
same pure-Python loop runs at speeds a third apart from one second to the
next, and whole runs of the same work differ by 20-45% in wall time from
one minute to the next (see the README).  No amount of work inside one run
averages out a slowdown that lasts longer than the run.

So the benchmark measures the machine alongside the program.  Between
instances, at most every ``INTERVAL`` seconds, the gauge times a burst of
``BURST`` runs of a fixed kernel (dict, tuple and integer work, the
interpreter operations ``pathrep`` spends its time in), with the garbage
collector off so that the program's heap does not weigh on it.  The median
of a burst drops a burst's outlier.  A time ``t`` measured from ``start``
to ``end`` is reported as ``t * REFERENCE_S / k``, where ``k`` is the mean
of the ``NEAR`` bursts before ``start`` and the ``NEAR`` after ``end``:
the time it would have taken on a machine that runs the kernel in
``REFERENCE_S``, at the speed the machine had around it.  Short slowdowns
matter: the slowest instances of a round are mostly those a slowdown hit,
and one factor for the whole run left the tails as spread as unscaled
ones.  The kernel lives in the benchmark, so no change to ``pathrep`` can
change its cost.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

INTERVAL = 0.25  # seconds between bursts, at least
BURST = 3
NEAR = 2  # bursts on each side of a measured interval
WARMUP = 5
# About the kernel's time in a quiet minute on the machine the benchmark
# was made on (2 CPUs of a shared Intel Xeon virtual machine, Python 3.11.7).
REFERENCE_S = 0.001


def kernel() -> int:
    """Fixed work of about a millisecond: tuple keys into a dict, integer
    arithmetic, no allocation that outlives the call."""
    table = {}
    total = 0
    for i in range(3000):
        key = (i & 255, i >> 3)
        table[key] = table.get(key, 0) + i * 7919
        total += len(table)
    return total


class Gauge:
    """Kernel bursts taken during one phase of a run."""

    def __init__(self):
        self.stamps: list[float] = []  # when each burst ended
        self.bursts: list[float] = []  # a burst's median kernel time
        for _ in range(WARMUP):  # the interpreter specialises the kernel's code on first runs
            kernel()

    def sample(self) -> None:
        """Time one burst now."""
        enabled = gc.isenabled()
        gc.disable()
        times = []
        for _ in range(BURST):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
        if enabled:
            gc.enable()
        self.bursts.append(statistics.median(times))
        self.stamps.append(time.perf_counter())

    def tick(self) -> None:
        """Time a burst if ``INTERVAL`` has passed since the last one."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL:
            self.sample()

    def kernel_s(self) -> float:
        """The mean kernel time over all bursts, for the record."""
        return statistics.fmean(self.bursts)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a time measured from ``start`` to ``end``
        into a time at the reference speed."""
        before = bisect.bisect_right(self.stamps, start)
        after = bisect.bisect_left(self.stamps, end)
        near = self.bursts[max(0, before - NEAR):after + NEAR]
        return REFERENCE_S / statistics.fmean(near)
