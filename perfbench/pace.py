"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual CPUs whose speed drifts by up to 2x
over seconds to minutes, for reasons outside the process.  Best-of and
median estimators do not remove a slowdown that lasts a whole run.  So
the benchmark runs a fixed calibration kernel between units of work and
rescales each unit's wall time by how fast the machine was around it:

    reported = wall * (REFERENCE_S / kernel time near that unit) ** SENSITIVITY

Reported times are thus "reference seconds".  The kernel imitates the
program's hot path (Python calls around tiny numpy products) and
allocates no objects the garbage collector tracks, so it neither triggers
nor absorbs the program's collections.  It lives here, not in eraseg, so
a change to the program cannot change the yardstick.

The kernel reacts to the machine's swings about twice as strongly as
eraseg does: in one 90 s trace the kernel sped up by 19 % while
segment() sped up by 10 %, and over ten seeded runs per workload full
rescaling (exponent 1) left a seed-to-seed spread of up to 0.29 against
0.19 for the square root and 0.25 for no rescaling.  Hence the exponent.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.010
SENSITIVITY = 0.5
_ITERATIONS = 2500
_WEIGHTS = np.random.default_rng(0).standard_normal((16, 32))
WINDOW_S = 2.0  # samples this close to a unit describe its machine speed
MIN_SAMPLES = 8


def kernel() -> float:
    x = np.ones((1, 16))
    acc = 0.0
    for i in range(_ITERATIONS):
        y = np.tanh(x @ _WEIGHTS)
        acc += float(y[0, 0]) + i * 0.5
        x = y[:, :16] * 0.5
    return acc


class Pace:
    """Kernel timings taken through a run, and the rescaling they imply."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.times: list[float] = []  # midpoint of each kernel run
        self.durations: list[float] = []
        self._due = 0.0

    def sample(self, n: int = 5) -> None:
        for _ in range(n):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)
        self._due = end + self.every_s

    def maybe_sample(self) -> None:
        """Sample once if every_s has passed since the last sample."""
        if time.perf_counter() >= self._due:
            self.sample(1)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time around [start, end]: the samples within
        WINDOW_S of it, widened to the MIN_SAMPLES nearest if too few."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no calibration samples taken")
        return statistics.median(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] in reference seconds."""
        return (end - start) * (REFERENCE_S / self.kernel_s(start, end)) ** SENSITIVITY
