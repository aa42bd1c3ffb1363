"""Pieces every workload shares: set-up timing, counters, the tally and
the result's metrics."""

from __future__ import annotations

import math
import os
import platform
import statistics
import time


SETUP_REPS = 5


class SetupTimer:
    """Times full set-ups at several points of a run.

    Each call of :meth:`run` builds everything from scratch ``reps``
    times, sampling the host's speed (``track``, a
    :class:`calibrate.SpeedTrack`) before and after every build, and
    returns the last build, the one the workload runs against. A run
    builds once before its window and once after it, so the median spans
    the run rather than the second or two the first builds fall in.
    """

    def __init__(self, build, track) -> None:
        self.build = build
        self.track = track
        self.builds: list[tuple[float, float]] = []  # (midpoint, seconds)

    def run(self, reps: int = SETUP_REPS):
        state = None
        for __ in range(reps):
            self.track.sample()
            t0 = time.perf_counter()
            state = self.build()
            t1 = time.perf_counter()
            self.track.sample()
            self.builds.append(((t0 + t1) / 2, t1 - t0))
        return state

    def median(self) -> float:
        """Median set-up seconds at the reference speed."""
        return statistics.median(self.track.scale(t, s)
                                 for t, s in self.builds)

    def measured_median(self) -> float:
        return statistics.median(s for __, s in self.builds)


def counter_values(names) -> dict:
    from repro import obs

    return {name: obs.counter(name).value for name in names}


def counter_delta(before: dict) -> dict:
    after = counter_values(before)
    return {name: after[name] - before[name] for name in before}


class Tally:
    """Operations attempted and those that succeeded with verified output.

    ``problems`` keeps a short description of every correctness failure
    (wrong output, error status, exception); latency-limit misses only
    lower ``ok``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.problems: list[str] = []

    def add(self, ok: bool, problem: str | None = None) -> None:
        self.attempted += 1
        self.ok += bool(ok)
        if problem is not None and len(self.problems) < 50:
            self.problems.append(problem)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def collect_metrics(outcome: dict, wanted: dict, reached: tuple,
                    trace: bool) -> dict:
    """Every metric of ``wanted`` as ``{"value", "unit"}``.

    A metric the workload reports must be in ``wanted`` with the same
    unit and a finite value, and every metric in ``reached`` must be
    reported; anything else is a problem. In the traced run a per-layer
    metric of a layer the workload does not reach reads 0.
    """
    problems = outcome["problems"]
    measured = outcome["metrics"]
    metrics = {}
    for name, (value, unit) in measured.items():
        value = float(value)
        if name not in wanted:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif unit != wanted[name]:
            problems.append(f"metric {name} in {unit}, BENCHMARK.json "
                            f"says {wanted[name]}")
        elif not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
        else:
            metrics[name] = {"value": value, "unit": unit}
    for name, unit in wanted.items():
        if name in measured:
            continue
        if trace and name not in reached:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            problems.append(f"metric {name} was not measured")
    for name in reached:
        if name not in wanted and name not in measured:
            problems.append(f"metric {name} was not measured")
    return metrics


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` files without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
