"""One evaluation pipeline for every cooperative game.

:func:`game_value_function` turns any :class:`repro.games.base.Game`
into a batched ``v(coalitions)`` callable that runs through the same
machinery the coalition engine gave feature attribution in PR 2 and the
guarded runtime gave it in PR 3 — now uniformly for data valuation,
tuple provenance and causal games too:

* **packed-bit value caching** via
  :class:`repro.core.coalition_engine.CoalitionValueCache` (counters
  ``coalition.cache.hits`` / ``.misses``), enabled when the game
  declares itself ``deterministic`` (or the caller passes ``cache=``);
* **memory-bounded chunking**: ``max_batch_rows`` (env
  ``REPRO_MAX_BATCH_ROWS``) divided by the game's
  ``rows_per_coalition`` bounds coalitions per evaluation call;
* **budget charging**: games that are not already ``guarded`` charge
  the ambient :class:`repro.robust.GuardScope` one
  ``rows_per_coalition`` per coalition, so deadlines and query budgets
  now stop a runaway Data Shapley exactly like they stop sampling SHAP;
* **transient retry + chunk retry**: unguarded games get the guard's
  capped-exponential retry of ``TRANSIENT_DEFAULT`` failures
  (``robust.retries``), and any chunk that still dies with
  :class:`~repro.robust.ModelEvaluationError` is retried whole
  (``robust.chunk_retries``) by the chunk loop every coalition
  evaluation shares (:func:`repro.core.coalition_engine._run_chunks`);
* **span telemetry**: every call opens a ``coalition_eval`` span
  carrying the game class, chunk geometry and cache hit/miss counts.

Position-seeded games (``value_at``) are cached by ``(row, mask)``
instead of mask alone: their randomness is keyed to the batch row (the
interventional SCM value function seeds ``seed + row``), so the same
mask at the same walk position is deterministic — and cacheable —
while masks at different positions stay distinct.

Cache lookup and dedupe are
:func:`repro.core.coalition_engine._cached_values`, the same helper the
coalition engine's value function uses.
"""

from __future__ import annotations

import numpy as np

from ..core.coalition_engine import (
    DEFAULT_CHUNK_RETRIES,
    CoalitionValueCache,
    _cached_values,
    _run_chunks,
    resolve_max_batch_rows,
)
from ..obs.trace import span
from ..robust.errors import (
    BudgetExceededError,
    InputValidationError,
    ModelEvaluationError,
)
from ..robust.guard import (
    TRANSIENT_DEFAULT,
    GuardConfig,
    _backoff_sleep,
    _note_retry,
    current_scope,
    resolve_backoff,
    resolve_retries,
)
from .base import as_game

__all__ = ["game_value_function"]


def _evaluate_chunk(game, positions, masks, guarded, rows_per):
    """One chunk through the game, with budgets, transient retry, charging.

    Whole-chunk retry of a :class:`ModelEvaluationError` is the shared
    chunk loop's job (:func:`repro.core.coalition_engine._run_chunks`);
    this is the part only unguarded games need: charging the ambient
    scope and retrying ``TRANSIENT_DEFAULT`` failures with backoff.
    """
    n_rows = masks.shape[0] * rows_per
    scope = None if guarded else current_scope()
    retries = resolve_retries()
    backoff = resolve_backoff()
    cfg = GuardConfig()
    failures = 0
    while True:
        if scope is not None:
            scope.check(n_rows)
        try:
            if positions is not None:
                vals = game.value_at(positions, masks)
            else:
                vals = game.value(masks)
            vals = np.asarray(vals, dtype=float).ravel()
            break
        except (BudgetExceededError, InputValidationError,
                ModelEvaluationError):
            raise
        except TRANSIENT_DEFAULT as e:
            if guarded:
                raise
            failures += 1
            if failures > retries:
                raise ModelEvaluationError(
                    f"game evaluation failed after {failures} attempts "
                    f"({retries} retries): {type(e).__name__}: {e}",
                    attempts=failures,
                ) from e
            _note_retry(scope)
            _backoff_sleep(cfg, backoff, failures, scope)
    if scope is not None:
        scope.rows_spent += n_rows
    return vals


def game_value_function(
    game,
    n_players: int | None = None,
    cache: bool | None = None,
    max_batch_rows: int | None = None,
    chunk_retries: int = DEFAULT_CHUNK_RETRIES,
):
    """The game's ``v(coalitions)`` with caching/chunking/budgets applied.

    ``cache=None`` defers to the game's ``deterministic`` flag; passing
    ``True`` for a non-deterministic game is the caller asserting
    determinism the adapter could not, and passing a
    :class:`~repro.core.coalition_engine.CoalitionValueCache` *instance*
    shares that store across value functions — the exec backend uses
    this to seed workers with the parent's cache and merge worker stores
    back. Self-evaluating games (the feature-masking adapter, bare
    callables wrapped by :func:`~repro.games.base.as_game`) are returned
    as-is — their value path is already engineered and wrapping it again
    would double-count telemetry.

    The returned ``v(coalitions, positions=None)`` accepts optional
    explicit *positions* for position-seeded games (``value_at``): by
    default each batch row's own index is its position, but a sharded
    caller evaluating a slice of a larger coalition matrix passes the
    rows' **global** indices so the position-keyed seeding (and the
    ``(row, mask)`` cache keys) match what the unsharded batch would
    have drawn.
    """
    game = as_game(game, n_players)
    if getattr(game, "self_evaluating", False):
        return game.value
    deterministic = getattr(game, "deterministic", False)
    guarded = getattr(game, "guarded", False)
    rows_per = max(1, int(getattr(game, "rows_per_coalition", 1)))
    if isinstance(cache, CoalitionValueCache):
        store = cache
    else:
        use_cache = deterministic if cache is None else cache
        store = CoalitionValueCache() if use_cache else None
    positional = hasattr(game, "value_at")
    per_chunk = max(1, resolve_max_batch_rows(max_batch_rows) // rows_per)
    game_name = type(game).__name__
    chunk_retries = max(0, int(chunk_retries))

    def _evaluate(indices: np.ndarray, coalitions: np.ndarray,
                  pos: np.ndarray | None, sp) -> np.ndarray:
        def evaluate(start, stop):
            sel = indices[start:stop]
            return _evaluate_chunk(
                game, pos[sel] if positional else None, coalitions[sel],
                guarded, rows_per,
            )

        return _run_chunks(indices.shape[0], per_chunk, evaluate,
                           chunk_retries, sp, rows_per, f"{game_name}.value")

    def v(coalitions: np.ndarray, positions: np.ndarray | None = None
          ) -> np.ndarray:
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        n_c = coalitions.shape[0]
        pos = None
        if positional:
            pos = (
                np.arange(n_c)
                if positions is None
                else np.asarray(positions, dtype=int).ravel()
            )
            if pos.shape[0] != n_c:
                raise InputValidationError(
                    f"positions has {pos.shape[0]} entries for "
                    f"{n_c} coalitions"
                )
        with span("coalition_eval", n_coalitions=n_c, game=game_name) as sp:
            if store is None:
                out = _evaluate(np.arange(n_c), coalitions, pos, sp)
                sp.set_attr("cache_hits", 0)
                sp.set_attr("cache_misses", n_c)
                return out
            keys = np.packbits(coalitions, axis=1)
            if positional:
                # Position-seeded games key the cache by (position, mask):
                # the same mask at a different walk position draws
                # different samples and must not collide. The position is
                # global (== the batch row unless the caller overrode it).
                prefix = pos.astype("<u4").view(np.uint8).reshape(n_c, 4)
                keys = np.concatenate([prefix, keys], axis=1)
            return _cached_values(
                keys, store,
                lambda rows: _evaluate(rows, coalitions, pos, sp), sp,
            )

    v.cache = store
    v.game = game
    return v
