"""Shared coalition plans: draw the sampling design once per batch.

``explain_batch`` used to pay the full per-explanation setup for every
row — re-drawing the same seeded permutations, re-enumerating the same
Kernel SHAP coalitions, re-deduplicating the same walk masks — because
each row's ``explain`` started cold. A :class:`CoalitionPlan` hoists
everything that depends only on ``(n_players, budget, seed)`` out of the
per-row loop:

* the permutation walks (antithetic pairs included, in the exact order
  the serial estimator would consume them from ``default_rng(seed)``);
* the coalition masks those walks visit, deduplicated by packed-bit key
  in first-occurrence order (the same dedup the coalition value cache
  performs per row, so per-mask values are bitwise-identical);
* the walk → unique-mask index matrix that turns one fused value vector
  back into per-walk value sequences;
* for Kernel SHAP, the enumerated/sampled coalition rows and their
  kernel weights.

Plans are immutable after construction and contain no per-instance
state, so one plan serves every row of a batch *and* every shard of a
process-backend batch (forked workers inherit it read-only — it ships
once, not per shard). Amortization is observable: building a plan bumps
``coalition.plan.built``, and every row served from an existing plan
bumps ``coalition.plan.reused`` — the E42 bench and the ``/metrics``
endpoint report the hit rate as ``reused / (built + reused)``.

A plan is the *only* evaluation path of the sampling, kernel, QII and
conditional SHAP explainers: a single-row ``explain`` is a batch of one
on it. :func:`plan_values` therefore carries the guard semantics the
per-walk estimator used to own — under a query budget or deadline it
evaluates the longest walk prefix the budget affords and reports a
partial, convergence-flagged estimate — and
:meth:`CoalitionPlan.record_lookups` books the dedupe the plan did as
``coalition.cache.hits`` / ``.misses``, the counters the per-walk value
cache used to feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics
from ..robust.errors import BudgetExceededError
from ..robust.guard import current_scope
from .base import walk_masks

__all__ = [
    "CoalitionPlan",
    "permutation_plan",
    "kernel_plan",
    "shared_plan",
    "plan_values",
    "mean_walks_reduce",
]

_BUILT = "coalition.plan.built"
_REUSED = "coalition.plan.reused"
_HITS = "coalition.cache.hits"
_MISSES = "coalition.cache.misses"


@dataclass(frozen=True)
class CoalitionPlan:
    """One batch's frozen sampling design, shared across rows and shards.

    Attributes
    ----------
    kind:
        ``"permutation"`` or ``"kernel"``.
    n_players:
        Feature count the plan was drawn for.
    unique_masks:
        ``(n_unique, n_players)`` boolean matrix of every distinct
        coalition the plan visits, in first-occurrence order.
    value_index:
        Integer matrix mapping the plan's logical evaluations onto rows
        of ``unique_masks``: shape ``(n_walks, n_players + 1)`` for
        permutation plans (each walk's ∅-to-grand mask sequence), shape
        ``(n_coalitions,)`` for kernel plans (``[∅, N, *sampled]``).
    walk_perms:
        Permutation plans only: ``(n_walks, n_players)`` player orders,
        antithetic reversals already interleaved in serial walk order.
    masks, weights:
        Kernel plans only: the enumerated/sampled coalition rows (the
        WLS design matrix, excluding ∅ and N) and their kernel weights.
    empty_index:
        Row of ``unique_masks`` holding the empty coalition.
    """

    kind: str
    n_players: int
    unique_masks: np.ndarray
    value_index: np.ndarray
    empty_index: int
    walk_perms: np.ndarray | None = None
    masks: np.ndarray | None = None
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_unique(self) -> int:
        return int(self.unique_masks.shape[0])

    @property
    def n_walks(self) -> int:
        return 0 if self.walk_perms is None else int(self.walk_perms.shape[0])

    @property
    def walk_ends(self) -> np.ndarray:
        """Permutation plans: unique masks needed to finish walks ``0..w``.

        Unique masks are in first-occurrence order, so the first
        ``walk_ends[w]`` of them are exactly the masks walks ``0..w``
        visit — the masks a per-walk value cache would have fetched.
        """
        return np.maximum.accumulate(self.value_index.max(axis=1)) + 1

    def mark_reused(self, n_rows: int) -> None:
        """Record ``n_rows`` explanations served from this shared plan."""
        if n_rows > 0:
            metrics.counter(_REUSED).inc(n_rows)

    def record_lookups(self, n_rows: int, n_walks: int | None = None) -> None:
        """Book the plan's dedupe as coalition-cache traffic.

        Per row, the logical coalition evaluations the estimator consumes
        (every walk's ∅-to-grand sequence, or Kernel SHAP's ``[∅, N,
        *masks]``) minus the unique masks actually evaluated count as
        ``coalition.cache.hits``, the unique masks as ``.misses`` — the
        numbers the per-walk value cache reported for the same work.
        ``n_walks`` restricts a permutation plan to a completed prefix.
        """
        if self.kind == "kernel":
            logical, unique = self.value_index.shape[0], self.n_unique
        else:
            n_walks = self.n_walks if n_walks is None else n_walks
            logical = n_walks * (self.n_players + 1)
            unique = int(self.walk_ends[n_walks - 1]) if n_walks else 0
        metrics.counter(_HITS).inc(n_rows * (logical - unique))
        metrics.counter(_MISSES).inc(n_rows * unique)

    def convergence(self, n_walks: int | None = None,
                    error: BudgetExceededError | None = None) -> dict:
        """The permutation estimator's convergence record for this design.

        ``n_walks_requested`` follows the estimator's arithmetic;
        completed is the actual walk count, which exceeds requested in
        the lone-antithetic-permutation edge case there too.
        """
        n_perms = self.meta["n_permutations"]
        pair = self.meta["antithetic"] and n_perms > 1
        n_batches = n_perms // 2 if pair else n_perms
        return {
            "converged": error is None,
            "n_walks_completed": self.n_walks if n_walks is None else n_walks,
            "n_walks_requested": n_batches * (2 if pair else 1),
            "budget_error": None if error is None else str(error),
        }


def _dedup_masks(
    mask_blocks: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate stacked masks by packed-bit key, first occurrence wins.

    Returns ``(unique_masks, index)`` where ``index`` maps each input
    row (in input order) to its row in ``unique_masks`` — exactly the
    follower bookkeeping a coalition value cache performs, so
    evaluating ``unique_masks`` once and gathering through ``index``
    reproduces cached per-walk values bitwise. One ``np.unique`` over
    the packed keys viewed as opaque byte strings, re-ranked into
    first-occurrence order.
    """
    stacked = np.concatenate(mask_blocks, axis=0)
    keys = np.ascontiguousarray(np.packbits(stacked, axis=1))
    flat = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    __, first, inverse = np.unique(flat, return_index=True,
                                   return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return stacked[first[order]], rank[inverse.ravel()]


def permutation_plan(
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
) -> CoalitionPlan:
    """Draw the permutation-sampling design once.

    The walks (and therefore the masks) are exactly what
    :func:`repro.games.estimators.permutation_estimator` consumes from
    ``default_rng(seed)`` in serial order: per batch one fresh
    permutation, followed by its reverse when ``antithetic``.
    """
    n = int(n_players)
    rng = np.random.default_rng(seed)
    pair = antithetic and n_permutations > 1
    n_batches = n_permutations // 2 if pair else n_permutations
    walks: list[np.ndarray] = []
    for __ in range(n_batches):
        perm = rng.permutation(n)
        walks.append(perm)
        if antithetic:
            walks.append(perm[::-1])
    blocks = [walk_masks(p) for p in walks]
    unique, index = _dedup_masks(blocks)
    value_index = index.reshape(len(walks), n + 1)
    metrics.counter(_BUILT).inc()
    return CoalitionPlan(
        kind="permutation",
        n_players=n,
        unique_masks=unique,
        value_index=value_index,
        empty_index=int(value_index[0, 0]),
        walk_perms=np.array(walks, dtype=np.intp),
        meta={"n_permutations": n_permutations, "antithetic": antithetic,
              "seed": seed},
    )


def kernel_plan(n_players: int, n_samples: int = 2048, seed: int = 0
                ) -> CoalitionPlan:
    """Draw the Kernel SHAP coalition design once.

    Coalition rows and weights come from the same
    ``_enumerate_coalitions(n, budget, default_rng(seed))`` stream the
    per-row estimator consumes, so the WLS design is identical for
    every row of the batch. ``value_index`` is laid out
    ``[∅, N, *masks]`` to match the estimator's evaluation order.
    """
    # Local import: estimators imports the engine machinery this module
    # must stay independent of (plans are pure data).
    from .estimators import _enumerate_coalitions

    n = int(n_players)
    if n == 1:
        # One player has a closed form, v(N) − v(∅): no WLS design.
        masks, weights = np.zeros((0, 1), dtype=bool), np.zeros(0)
    else:
        masks, weights = _enumerate_coalitions(
            n, n_samples, np.random.default_rng(seed)
        )
    ends = np.vstack([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    unique, index = _dedup_masks([ends, masks])
    metrics.counter(_BUILT).inc()
    return CoalitionPlan(
        kind="kernel",
        n_players=n,
        unique_masks=unique,
        value_index=index,
        empty_index=int(index[0]),
        masks=masks,
        weights=weights,
        meta={"n_samples": n_samples, "seed": seed},
    )


def shared_plan(owner, key: tuple, builder, n_rows: int) -> CoalitionPlan:
    """Fetch/build a plan in ``owner``'s plan store and count amortization.

    One explainer instance keeps one plan per parameter key, so
    consecutive ``explain_batch`` calls (and the aggregation helpers on
    top of them) never re-draw the design. The first row of a batch that
    *builds* the plan is the build; every other row is a reuse.
    """
    store = owner.__dict__.setdefault("_plan_store", {})
    plan = store.get(key)
    if plan is None:
        plan = builder()
        store[key] = plan
        plan.mark_reused(n_rows - 1)
    else:
        plan.mark_reused(n_rows)
    return plan


def plan_values(evaluate, ends, unit_rows, n_rows: int = 1):
    """Evaluate a plan's units, cut to the walk prefix the guard affords.

    ``evaluate(lo, hi)`` returns the values of plan units ``[lo, hi)``
    — unique masks, or whole walks for a plan that cannot dedupe — as an
    ``(n_rows, hi - lo, ...)`` array, charging the ambient
    :class:`~repro.robust.GuardScope` through the guarded predict
    function (which checks the scope before every chunk). ``ends[w]``
    is the number of leading units that completes walks ``0..w``;
    ``unit_rows[u]`` is the model rows unit ``u`` costs per instance.

    Without a guard budget this is one ``evaluate`` call over whole
    walks. Under a query budget, the longest walk prefix whose rows fit
    is evaluated, then the first walk that does not fit on its own — so
    the guard raises at the chunk, with the message, a per-walk
    estimator would have hit, and ``robust.budget_exhausted`` counts it.
    Under a deadline the walks go in groups, the guard checking the
    deadline before each: first one walk, then as many again as are
    done (1, 1, 2, 4, … walks) until the time spent so far, scaled to
    the rows left, fits in half of the deadline left — then the rest in
    one call. A deadline therefore cuts at a walk-group boundary, and
    an explanation overruns it by at most the group in flight, never
    more than the work done before it.

    Returns ``(values, n_walks, error)``: the evaluated units, how many
    leading walks they complete, and the budget error that cut them
    (``None`` when nothing was cut). Raises that error instead when not
    even one walk completed.
    """
    ends = np.asarray(ends)
    total = ends.shape[0]
    rows = n_rows * np.cumsum(unit_rows)[ends - 1]
    scope = current_scope()
    fits = total
    if scope is not None and scope.query_budget is not None:
        left = scope.query_budget - scope.rows_spent
        fits = int(np.searchsorted(rows, left, side="right"))
    timed = scope is not None and scope.deadline_s is not None
    t0 = scope.elapsed_s() if timed else 0.0
    parts = []
    done = 0
    error = None
    while done < total:
        # The budget's first non-fitting walk goes alone; otherwise up
        # to the budget's prefix (or the end).
        stop = done + 1 if done == fits else (fits if done < fits else total)
        if timed and done < stop - 1:
            # The time the done walks took, scaled to the rows left.
            rest = None
            if done and rows[done - 1]:
                rest = ((scope.elapsed_s() - t0) / rows[done - 1]
                        * (rows[stop - 1] - rows[done - 1]))
            if rest is None or 2 * rest > scope.remaining_s():
                stop = min(stop, 2 * done or 1)
        lo = int(ends[done - 1]) if done else 0
        try:
            parts.append(np.asarray(evaluate(lo, int(ends[stop - 1])),
                                    dtype=float))
        except BudgetExceededError as e:
            error = e
            break
        done = stop
    if error is not None and done == 0:
        raise error
    values = (np.concatenate(parts, axis=1) if parts
              else np.empty((n_rows, 0)))
    return values, done, error


def mean_walks_reduce(
    walk_values: np.ndarray, walk_perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-walk value sequences → ``(phi, std_err)``, bitwise-stable.

    ``walk_values`` is ``(n_walks, n + 1)`` — each walk's ∅-to-grand
    coalition values; ``walk_perms`` is ``(n_walks, n)``. Builds the
    identical ``(n_walks, n)`` contribution matrix the serial estimator
    stacks walk-by-walk, then applies the same mean/stderr reduction,
    so the result matches ``aggregate="mean_walks"`` bit for bit.
    """
    n_walks, n = walk_perms.shape
    diffs = walk_values[:, 1:] - walk_values[:, :-1]
    contrib = np.zeros((n_walks, n))
    contrib[np.arange(n_walks)[:, None], walk_perms] = diffs
    phi = contrib.mean(axis=0)
    std_err = (
        contrib.std(axis=0, ddof=1) / np.sqrt(n_walks)
        if n_walks > 1
        else np.zeros(n)
    )
    return phi, std_err
