"""The host's speed along a run, from a fixed reference kernel timed between
the program's calls.

The benchmark runs on a shared host whose speed drifts.  On the 2-CPU KVM
guest (Intel Xeon, Python 3.11.7, NumPy 2.4.6) it was written on, a fixed
batch of 100 solves ran in either about 0.39 s or about 0.63 s, switching
every few seconds, and medians of ten unscaled runs moved by 5-43% between
two sets of runs half an hour apart.  :func:`kernel`, a fixed mix of
interpreter work and small NumPy calls like the program's own, slows by the
same factor: over one minute, the 100-solve time spread 12% (interquartile
distance over median) and its ratio to the kernel's time 2.3%.

So the benchmark runs the kernel after a solver call whenever ``GAP_S`` has
passed since the last run, in every process that solves, and scales each
reported time by ``REF_S`` over the kernel's CPU time around it, with the
kernel's own runs taken out.  A scaled time reads as the time on that host in
its fast state: a change of the program moves it, a change of the host's
speed does not.  The kernel uses nothing of pinchopt, so no change of the
program changes the kernel.
"""
from __future__ import annotations

import bisect
import math
from time import perf_counter, process_time

import numpy as np

REF_S = 0.43e-3  # the kernel's time on the host above in its fast state
GAP_S = 0.01  # work between two kernel runs; the kernel adds about 4% to it

_X = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    """Fixed reference work: 60 small NumPy calls and 60 short Python loops."""
    acc = 0.0
    for i in range(60):
        y = np.sqrt(_X * _X + i)
        acc += float(np.max(y)) + sum(k * 0.5 for k in range(40))
    return acc


def time_kernel() -> tuple[float, float, float]:
    """Run the kernel once; return its (start, end, process CPU seconds)."""
    cpu = process_time()
    start = perf_counter()
    kernel()
    end = perf_counter()
    return start, end, process_time() - cpu


class SpeedLog:
    """Kernel samples, (start, end, CPU seconds), taken in one process."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._last = -math.inf

    def reset(self) -> None:
        self.samples = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(time_kernel())
        self._last = self.samples[-1][1]

    def maybe_sample(self) -> None:
        """Sample if ``GAP_S`` has passed since the last sample."""
        if perf_counter() - self._last >= GAP_S:
            self.sample()


class Scale:
    """Factor from measured to reference time along a run.

    ``samples`` are the (start, end, CPU seconds) of every kernel run of the
    run, from any process; perf_counter is one clock for all processes of the
    host.  A factor is ``REF_S`` over the kernel's CPU time, which leaves out
    time the process waited for a CPU, so it follows the host's speed alone.
    """

    def __init__(self, samples) -> None:
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("no reference kernel samples")
        self.mids = [(a + b) / 2 for a, b, _ in ordered]
        self.durations = [b - a for a, b, _ in ordered]
        self.factors = [REF_S / cpu for _, _, cpu in ordered]

    def at(self, t: float) -> float:
        """Factor at time ``t``, interpolated between the samples around it."""
        i = bisect.bisect_left(self.mids, t)
        if i == 0:
            return self.factors[0]
        if i == len(self.mids):
            return self.factors[-1]
        t0, t1 = self.mids[i - 1], self.mids[i]
        w = (t - t0) / (t1 - t0) if t1 > t0 else 0.5
        return (1 - w) * self.factors[i - 1] + w * self.factors[i]

    def duration(self, start: float, end: float, processes: int = 1) -> float:
        """Reference time of the work in an interval.

        The kernel runs inside the interval, spread over ``processes``
        processes working side by side, are taken out of its length; the rest
        is scaled by the mean factor of those runs, or by the factor at the
        interval's middle if none ran inside it.
        """
        lo = bisect.bisect_left(self.mids, start)
        hi = bisect.bisect_right(self.mids, end)
        if lo == hi:
            return (end - start) * self.at((start + end) / 2)
        kernel_s = math.fsum(self.durations[lo:hi]) / processes
        factor = math.fsum(self.factors[lo:hi]) / (hi - lo)
        return (end - start - kernel_s) * factor

    def mean_factor(self) -> float:
        return math.fsum(self.factors) / len(self.factors)
