"""Backend selection: ``backend=`` param > ``REPRO_BACKEND`` > serial.

``serial`` is the correctness baseline and the default — parallelism is
opt-in, for the estimators and ``explain_batch`` alike. ``thread``
shares one address space (caches, metrics and spans work natively) and
helps when coalition evaluation releases the GIL (numpy kernels, I/O
latency); ``process`` forks workers and helps for CPU-bound pure-Python
value functions (utility refits, relational queries) where threads gain
nothing.

``spawn`` starts fresh interpreter processes instead of forking: the
shard runner travels by pickle (no inherited memory), which is the only
process path on platforms without ``fork`` and the safe one in threaded
parents. Runners that cannot pickle (closures over fitted models)
degrade to ``thread`` with the same bitwise results.

Inside a pool worker :func:`resolve_backend` always answers
``"serial"`` — a sharded estimator re-entered from a worker must not
fork grandchildren (the fork-bomb guard). :func:`worker_mode` flips the
flag for the worker's lifetime via the pool initializer.
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = [
    "BACKENDS",
    "in_worker",
    "worker_mode",
    "resolve_backend",
    "resolve_n_procs",
    "fork_available",
]

BACKENDS = ("serial", "thread", "process", "spawn")

_IN_WORKER = False


def in_worker() -> bool:
    """Whether this process is an exec-backend pool worker."""
    return _IN_WORKER


def worker_mode(flag: bool = True) -> None:
    """Mark this process as a pool worker (set by the pool initializer)."""
    global _IN_WORKER
    _IN_WORKER = bool(flag)


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (POSIX; not Windows)."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(value: str | None = None) -> str:
    """The execution backend: explicit > ``REPRO_BACKEND`` > ``serial``.

    Unknown names raise :class:`ValueError` (explicit or from the env
    var — a typo must not silently serialize a benchmark). Inside a
    pool worker the answer is always ``serial``.
    """
    if _IN_WORKER:
        return "serial"
    if value is None:
        env = os.environ.get("REPRO_BACKEND", "").strip().lower()
        value = env or None
    if value is None:
        return "serial"
    value = str(value).strip().lower()
    if value not in BACKENDS:
        raise ValueError(
            f"backend must be one of {'|'.join(BACKENDS)}, got {value!r}"
        )
    return value


def resolve_n_procs(value: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_N_PROCS`` > CPU count, min 1.

    ``-1`` (either source) means "all cores".
    """
    if value is None:
        env = os.environ.get("REPRO_N_PROCS", "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                value = None
    if value is None:
        return os.cpu_count() or 1
    value = int(value)
    if value < 0:
        value = os.cpu_count() or 1
    return max(1, value)
