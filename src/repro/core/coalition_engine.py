"""Shared coalition-evaluation engine for Shapley-family explainers.

Every coalition-based explainer in the library reduces to the same hot
loop: given an instance ``x``, a background sample, and a batch of binary
coalition masks, materialize ``n_coalitions × n_background`` hybrid rows,
push them through the black-box predict function, and average each
coalition's block into one value ``v(S)``. The tutorial's cost axis for
post-hoc explainers is exactly this model-query bill, and the meters in
:mod:`repro.obs` made it visible; this module makes it cheap:

* **Broadcast masking** — one ``np.where(coalitions[:, None, :], x,
  background)`` replaces the per-coalition Python loop that used to live
  in ``MaskingSampler.expand``.
* **Memory-bounded chunking** — ``max_batch_rows`` (env
  ``REPRO_MAX_BATCH_ROWS``) splits huge coalition×background blocks into
  bounded predict-fn calls instead of one giant allocation; the chunk
  geometry is surfaced on the ``coalition_eval`` span.
* **Coalition-value caching** — identical masks are deduplicated within
  and across calls via packed-bit keys, so paired/antithetic permutation
  walks and the fully-enumerated small sizes of Kernel SHAP never pay
  for the same ``v(S)`` twice. Hits/misses are exported through
  ``repro.obs.metrics`` as ``coalition.cache.hits`` / ``.misses``.

The cache is only correct when the value function is a *deterministic*
function of the mask — true for the interventional masking game (no
randomness after background subsampling) and the empirical-conditional
game, false for stochastic value functions that consume fresh random
draws per evaluation (e.g. QII's factorized interventions). Those callers
must pass ``cache=False`` (or use :func:`batched_predict` directly) so
repeated masks keep their independent draws. Caching is decided per
call by that argument alone; there is no process-wide switch.

Fault tolerance: each chunk's guarded predict call is retried at the
chunk level (``chunk_retries``) when the guard gives up, and failed
evaluations are **never committed** to the value cache — cache writes
happen only after a chunk's values come back clean, so a poisoned chunk
cannot leave corrupt ``v(S)`` entries behind for later calls to reuse.

The chunk loop (:func:`_run_chunks`) and the cache lookup
(:func:`_cached_values`) are shared with the games evaluator
(:mod:`repro.games.engine`) and the conditional value function, so every
coalition evaluation in the library chunks, retries, times and
deduplicates the same way. The pre-engine per-coalition loop lives on
only as a test oracle (``tests/oracles/coalition_walk.py``).
"""

from __future__ import annotations

import base64
import os
from typing import Callable

import numpy as np

from ..obs import metrics
from ..obs.trace import span
from ..persist.errors import PayloadError
from ..persist.protocol import register_serializable
from ..robust.errors import ModelEvaluationError, OutputShapeError

__all__ = [
    "DEFAULT_MAX_BATCH_ROWS",
    "resolve_max_batch_rows",
    "broadcast_expand",
    "batched_predict",
    "CoalitionValueCache",
    "CoalitionEngine",
]

DEFAULT_MAX_BATCH_ROWS = 65_536
DEFAULT_CHUNK_RETRIES = 1

_HITS = "coalition.cache.hits"
_MISSES = "coalition.cache.misses"
_CHUNK_RETRIES = "robust.chunk_retries"


def resolve_max_batch_rows(value: int | None = None) -> int:
    """The per-predict-call row bound: explicit value > env > default.

    ``REPRO_MAX_BATCH_ROWS`` lets deployments cap the transient
    coalition×background allocation without touching call sites.
    """
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("REPRO_MAX_BATCH_ROWS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return DEFAULT_MAX_BATCH_ROWS


def broadcast_expand(
    x: np.ndarray, coalitions: np.ndarray, background: np.ndarray
) -> np.ndarray:
    """Materialize coalition rows against the whole background, vectorized.

    Returns shape ``(n_coalitions * n_background, d)``: for each
    coalition, one copy of every background row with present features
    overwritten by the instance's values. Block layout (all background
    rows of coalition 0, then coalition 1, …) matches the historical
    ``MaskingSampler.expand`` exactly.
    """
    x = np.asarray(x, dtype=float).ravel()
    coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n_c, d = coalitions.shape
    rows = np.where(coalitions[:, None, :], x[None, None, :], background[None, :, :])
    return rows.reshape(n_c * background.shape[0], d)


def batched_predict(
    predict_fn: Callable[[np.ndarray], np.ndarray],
    rows: np.ndarray,
    max_batch_rows: int | None = None,
) -> np.ndarray:
    """Evaluate ``predict_fn`` over ``rows`` in memory-bounded chunks.

    Per-row outputs are independent of chunk boundaries, so the result is
    identical to one giant call — only the peak allocation (and the
    ``model.calls`` meter) changes.
    """
    rows = np.atleast_2d(rows)
    limit = resolve_max_batch_rows(max_batch_rows)
    n = rows.shape[0]
    if n <= limit:
        return np.asarray(predict_fn(rows), dtype=float).ravel()
    out = np.empty(n, dtype=float)
    for start in range(0, n, limit):
        stop = min(start + limit, n)
        out[start:stop] = np.asarray(
            predict_fn(rows[start:stop]), dtype=float
        ).ravel()
    return out


def _cached_values(keys, store, evaluate, sp=None) -> np.ndarray:
    """One value per key row, each distinct key evaluated at most once.

    Keys already in ``store`` (a :class:`CoalitionValueCache`) are
    served from it; the rest go to a single ``evaluate(rows)`` call with
    the row indices of their first occurrences, in first-occurrence
    order, and are committed only after it returns, so a failed chunk
    never leaves an entry behind. Cached keys and in-call repeats count
    as hits, evaluated keys as misses — on the store's counters and on
    span ``sp``.
    """
    n = keys.shape[0]
    values = store.values
    out = np.empty(n, dtype=float)
    followers: dict[bytes, list[int]] = {}
    for i in range(n):
        key = keys[i].tobytes()
        known = values.get(key)
        if known is not None:
            out[i] = known
        elif key in followers:
            followers[key].append(i)
        else:
            followers[key] = [i]
    n_fresh = len(followers)
    if followers:
        vals = np.asarray(
            evaluate(np.array([rows[0] for rows in followers.values()])),
            dtype=float,
        )
        for (key, rows), value in zip(followers.items(), vals.tolist()):
            values[key] = value
            out[rows] = value
    store.record(n - n_fresh, n_fresh)
    if sp is not None:
        sp.set_attr("cache_hits", n - n_fresh)
        sp.set_attr("cache_misses", n_fresh)
    return out


def _run_chunks(n_items, per_chunk, evaluate, chunk_retries, sp,
                rows_per_item, what="coalition evaluation") -> np.ndarray:
    """The one chunk loop behind every coalition evaluation.

    Fills ``out[start:stop] = evaluate(start, stop)`` over ``[0,
    n_items)`` in ``per_chunk`` slices, timing each into
    ``coalition.chunk_ms``. A chunk whose evaluation gives up with
    :class:`~repro.robust.ModelEvaluationError` is retried whole up to
    ``chunk_retries`` times: chunk geometry means one flaky evaluation
    would otherwise sink thousands of coalition values, and a fresh
    attempt re-enters the guard with a full retry allowance.
    :class:`~repro.robust.BudgetExceededError` is never retried (the
    budget will not recover), and neither is a chunk that came back
    with the wrong number of values — ``what`` names the evaluator in
    that :class:`~repro.robust.OutputShapeError`, a bug no retry can
    fix. The chunk geometry lands on the ``coalition_eval`` span ``sp``.
    """
    out = np.empty(n_items, dtype=float)
    n_chunks = 0
    try:
        for start in range(0, n_items, per_chunk):
            stop = min(start + per_chunk, n_items)
            with metrics.observe_duration("coalition.chunk_ms"):
                attempt = 0
                while True:
                    try:
                        vals = np.asarray(evaluate(start, stop),
                                          dtype=float).ravel()
                        break
                    except ModelEvaluationError:
                        attempt += 1
                        if attempt > chunk_retries:
                            raise
                        metrics.counter(_CHUNK_RETRIES).inc()
            if vals.shape[0] != stop - start:
                raise OutputShapeError(
                    f"{what} returned {vals.shape[0]} values for "
                    f"{stop - start} coalitions"
                )
            out[start:stop] = vals
            n_chunks += 1
    finally:
        sp.set_attr("chunk_coalitions", per_chunk)
        sp.set_attr("chunk_rows", per_chunk * rows_per_item)
        sp.set_attr("n_chunks", n_chunks)
    return out


@register_serializable("core.CoalitionValueCache")
class CoalitionValueCache:
    """Memo of coalition values keyed by packed-bit masks.

    Keys are ``np.packbits`` bytes of the boolean mask — 8× smaller than
    tuple keys and hashable without per-element Python objects. One cache
    instance is scoped to one ``(instance, value function)`` pair; values
    for different explained instances never share a cache.
    """

    __slots__ = ("values", "hits", "misses")

    def __init__(self) -> None:
        self.values: dict[bytes, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.values)

    def record(self, hits: int, misses: int) -> None:
        """Accumulate local stats and export them through repro.obs."""
        self.hits += hits
        self.misses += misses
        if hits:
            metrics.counter(_HITS).inc(hits)
        if misses:
            metrics.counter(_MISSES).inc(misses)

    def to_dict(self) -> dict:
        """Entries only; hit/miss statistics are ephemeral run state."""
        return {
            "entries": {
                base64.b64encode(key).decode("ascii"): float(value)
                for key, value in self.values.items()
            }
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CoalitionValueCache":
        out = cls()
        try:
            for key_b64, value in payload.get("entries", {}).items():
                out.values[base64.b64decode(key_b64.encode("ascii"))] = \
                    float(value)
        except (ValueError, TypeError, AttributeError) as e:
            raise PayloadError(f"malformed cache entries: {e}") from e
        return out


@register_serializable("core.CoalitionEngine")
class CoalitionEngine:
    """Vectorized, cached, memory-bounded coalition evaluation.

    Parameters
    ----------
    background:
        Background sample; absent features are imputed from it
        (subsampled to ``max_background`` rows, as before).
    max_batch_rows:
        Upper bound on rows per predict-fn call (``None`` → env
        ``REPRO_MAX_BATCH_ROWS`` → :data:`DEFAULT_MAX_BATCH_ROWS`).
    chunk_retries:
        Extra whole-chunk attempts after the guarded predict function
        gives up on a chunk (:class:`repro.robust.ModelEvaluationError`).
        Chunk geometry means one flaky evaluation would otherwise sink
        thousands of coalition values at once; a fresh attempt re-enters
        the guard with a full retry allowance. Budget exhaustion is
        never chunk-retried (the budget will not recover).
    """

    def __init__(
        self,
        background: np.ndarray,
        max_background: int = 100,
        rng: np.random.Generator | None = None,
        max_batch_rows: int | None = None,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
    ) -> None:
        background = np.atleast_2d(np.asarray(background, dtype=float))
        if background.shape[0] > max_background:
            rng = rng or np.random.default_rng(0)
            idx = rng.choice(background.shape[0], size=max_background, replace=False)
            background = background[idx]
        self.background = background
        self.max_batch_rows = resolve_max_batch_rows(max_batch_rows)
        self.chunk_retries = max(0, int(chunk_retries))

    @property
    def n_background(self) -> int:
        return self.background.shape[0]

    def to_dict(self) -> dict:
        return {
            "background": self.background,
            "max_batch_rows": self.max_batch_rows,
            "chunk_retries": self.chunk_retries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CoalitionEngine":
        background = np.atleast_2d(np.asarray(payload["background"],
                                              dtype=float))
        # The stored background was already subsampled at construction;
        # passing its own row count as the cap keeps it verbatim instead
        # of re-subsampling.
        return cls(
            background,
            max_background=background.shape[0],
            max_batch_rows=payload.get("max_batch_rows"),
            chunk_retries=payload.get("chunk_retries",
                                      DEFAULT_CHUNK_RETRIES),
        )

    # -- expansion -----------------------------------------------------------

    def expand(self, x: np.ndarray, coalitions: np.ndarray) -> np.ndarray:
        """Broadcast-materialize coalition rows (see :func:`broadcast_expand`)."""
        return broadcast_expand(x, coalitions, self.background)

    # -- evaluation ----------------------------------------------------------

    def _grid(self, model_fn, X, coalitions, sp) -> np.ndarray:
        """Chunked ``v(S)`` over the flattened ``rows × coalitions`` grid.

        Slot ``r * n_c + c`` is coalition ``c`` fixed to row ``r``. Each
        coalition block is averaged over its own background rows only,
        so values are bitwise independent of where chunks fall — across
        coalitions and across instance rows alike.
        """
        n_c = coalitions.shape[0]
        n_b = self.n_background
        d = X.shape[1]

        def evaluate(start, stop):
            slots = np.arange(start, stop)
            row_ids = slots // n_c
            coal_ids = slots - row_ids * n_c
            rows = np.where(
                coalitions[coal_ids][:, None, :],
                X[row_ids][:, None, :],
                self.background[None, :, :],
            ).reshape((stop - start) * n_b, d)
            preds = np.asarray(model_fn(rows), dtype=float).ravel()
            return preds.reshape(stop - start, n_b).mean(axis=1)

        per_chunk = max(1, self.max_batch_rows // n_b)
        return _run_chunks(X.shape[0] * n_c, per_chunk, evaluate,
                           self.chunk_retries, sp, n_b)

    def batch_value_matrix(
        self,
        model_fn: Callable[[np.ndarray], np.ndarray],
        X: np.ndarray,
        coalitions: np.ndarray,
    ) -> np.ndarray:
        """Fused ``v(S)`` over a batch of instances × shared coalitions.

        Returns a ``(n_instances, n_coalitions)`` matrix: entry
        ``[r, c]`` is the mean model output over the background with
        coalition ``c`` fixed to instance ``r`` — exactly what
        ``value_function(model_fn, X[r])(coalitions)[c]`` computes, but
        evaluated as one flattened ``instance × coalition`` grid so
        chunks can span row boundaries and small per-row mask sets no
        longer pay one model call each. Callers pass pre-deduplicated
        coalitions (a :class:`repro.games.plan.CoalitionPlan`); no value
        cache is consulted here.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        n_rows, n_c = X.shape[0], coalitions.shape[0]
        with span(
            "coalition_eval", n_coalitions=n_rows * n_c,
            n_background=self.n_background, fused_rows=n_rows,
        ) as sp:
            out = self._grid(model_fn, X, coalitions, sp)
        return out.reshape(n_rows, n_c)

    def value_function(
        self,
        model_fn: Callable[[np.ndarray], np.ndarray],
        x: np.ndarray,
        cache: bool = True,
    ):
        """Return ``v(S)``: mean model output with coalition S fixed to x.

        The returned callable accepts a binary coalition matrix and
        returns one averaged output per coalition. With ``cache=True``
        (the default — correct because the masking game is deterministic)
        identical masks are evaluated once within and across calls; the
        cache is reachable afterwards as ``v.cache``. Values are only
        committed to the cache after the whole evaluation succeeded, so a
        failed chunk never leaves entries behind.
        """
        x = np.asarray(x, dtype=float).ravel()
        X = x[None, :]
        store = CoalitionValueCache() if cache else None
        if store is not None:
            # Opt-in pre-warming from a persisted snapshot
            # (REPRO_CACHE_SNAPSHOT). Scope tokens keep foreign snapshots
            # out, and a broken snapshot never fails the explanation.
            from ..persist.snapshot import (maybe_prewarm,
                                            resolve_snapshot_path,
                                            scope_token)
            if resolve_snapshot_path() is not None:
                maybe_prewarm(store, scope_token(x, self.background))

        def v(coalitions: np.ndarray) -> np.ndarray:
            coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
            n_c = coalitions.shape[0]
            with span(
                "coalition_eval", n_coalitions=n_c, n_background=self.n_background
            ) as sp:
                if store is None:
                    out = self._grid(model_fn, X, coalitions, sp)
                    sp.set_attr("cache_hits", 0)
                    sp.set_attr("cache_misses", n_c)
                    return out
                return _cached_values(
                    np.packbits(coalitions, axis=1), store,
                    lambda rows: self._grid(model_fn, X, coalitions[rows], sp),
                    sp,
                )

        v.cache = store
        return v
