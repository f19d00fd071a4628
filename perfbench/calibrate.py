"""Machine-speed reference for the benchmark's timed end-to-end metrics.

The shared VMs this benchmark runs on change speed by up to ~1.8x for
minutes at a time, and darksector, a fixed pure-Python loop and this
module's kernel all slow down together.  A run therefore samples a fixed
reference kernel in the same thread, interleaved with the jobs, and divides
each job's time by the slowdown the kernel saw around it: the timed
metrics are seconds at the speed where the kernel takes
``NOMINAL_S``.  The kernel does not use darksector, so a change to the
program moves the metrics in full.

    with SpeedMeter() as meter:
        ...timed work...
    seconds = meter.normalise(t0, t1)
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from fractions import Fraction

# Median kernel time on a 2-vCPU Intel Xeon VM with Python 3.11.7, in its
# fast phase.  Only a scale: the metrics are divided by it, not tuned by it.
NOMINAL_S = 0.0021
PERIOD_S = 0.1


def timed_kernel() -> float:
    """Seconds of one kernel call, with the cyclic garbage collector off so
    that the time does not depend on the size of the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel() -> int:
    """A fixed mix of the interpreted work darksector does: tuple-keyed
    dicts, Fraction arithmetic, sorting and JSON encoding for about half of
    its time, an int loop for the other half.  In the VM's slow phases the
    first half slowed by ~2.1x, the loop by ~1.7x and darksector's
    workloads by 1.6x to 1.9x.  Over 34 passes of each workload, in both
    phases, the even mix put the median of the slow passes within 5% of
    that of the fast ones on every workload; the first half alone was 11%
    off on ``trapped``, the loop alone 9% on ``unfold_census``."""
    table = {}
    for i in range(150):
        table[(i, i * 7 % 13)] = Fraction(i, 840) + Fraction(1, 7)
    ordered = sorted(table.values())
    doc = [{"a": a, "b": b, "v": float(v)} for (a, b), v in table.items()]
    total = len(json.dumps(doc, indent=2)) + len(ordered)
    for i in range(20000):
        total += i * i % 7
    return total


def kernel_median(times: int = 9) -> float:
    """Median kernel time after one warm-up call."""
    kernel()
    return statistics.median(timed_kernel() for _ in range(times))


class SpeedMeter:
    """Runs the kernel every ``period`` seconds (on SIGALRM, in the main
    thread) and records (start, seconds) of each sample."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        self.samples.append((time.perf_counter(), timed_kernel()))

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the meter itself took inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time around [t0, t1], over ``NOMINAL_S``."""
        near = [d for s, d in self.samples if t0 - self.period <= s <= t1 + self.period]
        if not near:  # only when samples are missing: take the closest one
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return statistics.median(near) / NOMINAL_S

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1], less the meter's own samples, at nominal speed."""
        return (t1 - t0 - self.spent(t0, t1)) / self.slowdown(t0, t1)

    def median_slowdown(self) -> float:
        return statistics.median(d for _, d in self.samples) / NOMINAL_S
