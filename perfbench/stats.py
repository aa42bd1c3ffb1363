"""Measurement helpers shared by the workloads.

Everything here is pure and deterministic so the tests in
``perfbench/tests`` can pin it down:

* :func:`percentile` refuses to report a tail quantile the sample
  cannot support (fewer than ten samples beyond it);
* :func:`self_time` is a span's duration minus the part of it that its
  child spans cover;
* :func:`poisson_schedule` draws an open-loop arrival schedule from a
  seed;
* :class:`DueClock` times open-loop requests from when they were due,
  not from when the generator got round to sending them.
"""

from __future__ import annotations

import math

import numpy as np

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``, linear interpolation.

    Raises :class:`InsufficientSamples` when fewer than ``min_beyond``
    samples lie beyond the requested quantile, so a p99 is never read
    off a handful of tail points. The median only needs one sample.
    """
    data = np.asarray(values, dtype=float)
    n = data.size
    if n == 0:
        raise InsufficientSamples("no samples")
    if q > 0.5 and n * (1.0 - q) < min_beyond - 1e-9:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {math.ceil(min_beyond / (1.0 - q))} "
            f"samples for {min_beyond} beyond it, got {n}"
        )
    return float(np.quantile(data, q))


def median(values) -> float:
    return percentile(values, 0.5)


def tail_or_none(values, q: float):
    """:func:`percentile`, or ``None`` when the sample cannot support it
    (for tails that are recorded with the result but not printed)."""
    try:
        return percentile(values, q)
    except InsufficientSamples:
        return None


def union_length(intervals, lo: float | None = None,
                 hi: float | None = None) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given; overlaps are counted once."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's self time: its duration minus what its children cover.

    Children are ``(start, end)`` pairs; parts outside the parent are
    ignored and overlapping children (threads) are counted once.
    """
    return (end - start) - union_length(children, start, end)


def poisson_schedule(rate_per_s: float, seconds: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Sorted due times (s from the window start) of a Poisson process.

    The count is fixed at ``round(rate * seconds)`` and the times are
    that many uniform draws, sorted — a Poisson process conditioned on
    its count — so every seed yields the same sample size.
    """
    n = int(round(rate_per_s * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=n))


class DueClock:
    """Open-loop timing anchored on a window start.

    ``due_at(offset)`` converts a schedule offset into an absolute clock
    reading; :meth:`latency_ms` measures completion against it, so time
    a request spent waiting for a late generator or a busy worker
    counts against the request, as it would for a real user.
    """

    def __init__(self, t0: float) -> None:
        self.t0 = t0

    def due_at(self, offset_s: float) -> float:
        return self.t0 + offset_s

    def latency_ms(self, offset_s: float, done: float) -> float:
        return (done - self.due_at(offset_s)) * 1000.0

    def lag_ms(self, offset_s: float, sent: float) -> float:
        """How late the generator handed the request over."""
        return max(0.0, (sent - self.due_at(offset_s)) * 1000.0)
