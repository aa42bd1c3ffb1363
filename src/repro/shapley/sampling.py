"""Monte-Carlo Shapley estimation by permutation sampling.

The Shapley value is the expectation, over a uniformly random permutation
π of the players, of the marginal contribution of player i to the set of
players preceding it:

    φ_i = E_π[ v(pre_π(i) ∪ {i}) − v(pre_π(i)) ].

Sampling permutations (Castro et al. 2009) gives an unbiased estimator
whose error decays as O(1/√m); the antithetic variant pairs each
permutation with its reverse, which cancels much of the variance for
roughly symmetric games. E2 plots exactly this convergence.

The walk loop itself lives in the shared estimator suite
(:func:`repro.games.estimators.permutation_estimator`, ``mean_walks``
mode) — :func:`permutation_shapley` keeps the historical
``(phi, std_err)`` API on top of it for any value function. The
explainer does not walk at all: it evaluates the seeded walks' unique
coalitions once on a shared :class:`repro.games.plan.CoalitionPlan` and
reduces them exactly as the walk loop would, bit for bit.

Graceful degradation: when the guarded runtime's deadline or model-query
budget runs out mid-estimate (:class:`repro.robust.BudgetExceededError`),
the walks already completed still form an unbiased — just noisier —
estimator, so the sampler stops early and returns it instead of raising.
The walk loop stops at a walk boundary; the explainer stops at a
walk-group boundary (see :func:`repro.games.plan.plan_values`).
``return_diagnostics=True`` exposes the convergence record the explainers
surface in ``meta["convergence"]``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import PlanExplainer
from ..core.explanation import FeatureAttribution
from ..core.sampling import MaskingSampler
from ..games.estimators import permutation_estimator
from ..games.plan import (
    mean_walks_reduce,
    permutation_plan,
    plan_values,
    shared_plan,
)

__all__ = [
    "permutation_shapley",
    "SamplingShapleyExplainer",
]


def permutation_shapley(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
    return_diagnostics: bool = False,
    backend: str | None = None,
    n_procs: int | None = None,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, dict]:
    """Estimate Shapley values from random permutations.

    Returns ``(phi, std_err)`` — the estimates and their per-player
    standard errors over sampled permutations. With
    ``return_diagnostics=True`` a third element records convergence:
    ``{"converged", "n_walks_completed", "n_walks_requested",
    "budget_error"}``. A :class:`BudgetExceededError` raised by the
    value function stops sampling early; if at least one walk finished,
    the partial estimate is returned (``converged=False``), otherwise
    the error propagates. ``backend`` selects the execution backend
    (:mod:`repro.exec`) — sharding only applies when ``value_fn`` is a
    shard-eligible :class:`~repro.games.base.Game`, and the estimate is
    bitwise-identical whichever backend runs it.
    """
    est = permutation_estimator(
        value_fn,
        n_players=n_players,
        n_permutations=n_permutations,
        antithetic=antithetic,
        seed=seed,
        aggregate="mean_walks",
        backend=backend,
        n_procs=n_procs,
    )
    if not return_diagnostics:
        return est.values, est.std_err
    return est.values, est.std_err, est.diagnostics


class SamplingShapleyExplainer(PlanExplainer):
    """Model-agnostic sampled SHAP with the interventional value function.

    Permutation walks re-visit many coalitions (every walk hits ∅ and N;
    antithetic pairs and short prefixes collide constantly on small
    feature counts), so the seeded walks are drawn once into a shared
    :class:`repro.games.plan.CoalitionPlan` that keeps each distinct
    coalition once. Every explained row evaluates those coalitions in
    one fused, chunked grid through the coalition engine
    (:meth:`repro.core.coalition_engine.CoalitionEngine.batch_value_matrix`)
    and reduces them walk by walk — bitwise the result of
    :func:`permutation_shapley` over the cached masking game. Execution
    backends are chosen per batch: ``explain_batch(backend=...)``.
    """

    method_name = "sampling_shap"

    def __init__(
        self,
        model,
        background: np.ndarray,
        n_permutations: int = 100,
        antithetic: bool = True,
        max_background: int = 100,
        output: str = "auto",
        seed: int = 0,
        max_batch_rows: int | None = None,
        guard=None,
    ) -> None:
        super().__init__(model, output, guard=guard)
        self.sampler = MaskingSampler(
            background, max_background=max_background, max_batch_rows=max_batch_rows
        )
        self.n_features = self.sampler.background.shape[1]
        self.n_permutations = n_permutations
        self.antithetic = antithetic
        self.seed = seed

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """One shared permutation plan per (n, budget, seed) design."""
        n = X.shape[1]
        key = ("permutation", n, self.n_permutations, self.antithetic,
               self.seed)
        return shared_plan(
            self,
            key,
            lambda: permutation_plan(
                n,
                n_permutations=self.n_permutations,
                antithetic=self.antithetic,
                seed=self.seed,
            ),
            X.shape[0],
        )

    def _amortized_rows(self, X, lo, hi, plan, feature_names=None):
        """Rows ``[lo, hi)`` against the shared plan, fused per shard.

        Every distinct coalition the walk schedule visits is evaluated
        once per row through the engine's fused ``rows × coalitions``
        grid; gathering through ``plan.value_index`` then reproduces the
        per-walk value sequences a cached walk loop sees, so the
        reduction is bitwise :func:`permutation_shapley` over the
        masking game — including its budget partials (prediction first,
        then the longest walk prefix the budget affords).
        """
        rows = X[lo:hi]
        n = X.shape[1]
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in rows]
        values, n_walks, error = plan_values(
            lambda a, b: self.sampler.batch_value_matrix(
                self.predict_fn, rows, plan.unique_masks[a:b]
            ),
            plan.walk_ends,
            np.full(plan.n_unique, self.sampler.n_background),
            n_rows=rows.shape[0],
        )
        plan.record_lookups(rows.shape[0], n_walks)
        convergence = plan.convergence(n_walks, error)
        value_index = plan.value_index[:n_walks]
        names = feature_names or [f"x{i}" for i in range(n)]
        out = []
        for r in range(rows.shape[0]):
            phi, std_err = mean_walks_reduce(
                values[r][value_index], plan.walk_perms[:n_walks]
            )
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=float(values[r][plan.empty_index]),
                prediction=predictions[r],
                method=self.method_name,
                meta={"std_err": std_err,
                      "n_permutations": self.n_permutations,
                      "convergence": dict(convergence)},
            ))
        return out
