"""Host-speed calibration: a fixed reference kernel timed next to the work.

A shared host changes speed under the benchmark: on a 2-vCPU cloud VM
the same interpreter work took 12 ms in one second and 17-20 ms a few
seconds later, in episodes lasting tens of seconds, and CPU time moved
with wall time, so the slowdown is the processor's, not descheduling.
Over a 30-second window that drift sets a run's medians more than the
program does.

:class:`SpeedTrack` times :func:`kernel` every ``every_s`` seconds
between operations (never during one) and scales each operation's time
by ``REF_MS`` over the kernel's time measured around it. The kernel is
a fixed mix of the two kinds of work the program does, interpreter
loops and small numpy calls, on data small enough to stay in the
core's own caches: a kernel that reads megabytes would time how much of
its data the operations before it evicted, which the program decides.

Every reported timing is therefore "milliseconds at the reference
speed, at which the kernel takes ``REF_MS``". The kernel is the
benchmark's own code, so no change to the program moves it; the
unscaled timings are kept with each result.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_MS = 3.5
NEAREST = 3  # kernel samples on each side of an operation

_MATRIX = np.random.default_rng(0).random((64, 64))


def kernel() -> float:
    """Run the reference work once; its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(20_000):
        table[i % 97] = table.get(i % 97, 0) + i
    for __ in range(200):
        _MATRIX @ _MATRIX[:, :8]
        np.sort(_MATRIX[0])
    return time.perf_counter() - t0


class SpeedTrack:
    """Kernel samples over a run, and timings scaled by them."""

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = kernel()
        self.times.append(t0 + seconds / 2)
        self.seconds.append(seconds)
        self._last = t0

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every_s

    def maybe(self) -> None:
        """Sample when the last sample is ``every_s`` old."""
        if self.due():
            self.sample()

    def factor(self, t: float) -> float:
        """``REF_MS`` over the median kernel time of the samples nearest
        to clock reading ``t``."""
        if not self.seconds:
            raise RuntimeError("no calibration samples")
        at = bisect.bisect_left(self.times, t)
        near = self.seconds[max(0, at - NEAREST):at + NEAREST]
        return REF_MS / (statistics.median(near) * 1000.0)

    def scale(self, t: float, value: float) -> float:
        """``value`` (a duration around clock reading ``t``) at the
        reference speed."""
        return value * self.factor(t)

    def kernel_ms(self) -> float:
        """Median kernel time of the run, in ms (recorded, not scaled)."""
        return statistics.median(self.seconds) * 1000.0
