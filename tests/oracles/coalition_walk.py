"""Per-walk coalition evaluation: the oracle for the coalition-plan path.

The sampling, kernel, QII and conditional SHAP explainers evaluate one
shared coalition plan per batch (a single-row ``explain`` is a batch of
one). Before that they walked: one value-function call per permutation
walk through a packed-bit value cache. This module keeps that
computation, built from the per-walk estimators that stay in the
package (``permutation_shapley``, ``kernel_shap``, ``shapley_qii``),
plus the pre-engine pieces below them:

* :func:`legacy_expand` — the per-coalition expansion loop the
  broadcast expansion replaced;
* :func:`legacy_value_function` — loop expand, one unchunked predict
  call, no cache;
* :func:`legacy_permutation_shapley` — the pre-games walk loop.

The ``*_explain`` oracles mirror the deleted per-walk ``explain`` bodies
step for step (prediction first, then the base value, then the walks),
so they also spend the guard budget in the same order: under a
``GuardConfig(query_budget=b)`` their partial estimates are what the
plan path must reproduce.
"""

from __future__ import annotations

import numpy as np

from repro.core.explanation import FeatureAttribution
from repro.games.adapters import FeatureMaskingGame
from repro.robust.errors import BudgetExceededError
from repro.robust.guard import check_instance, guard_scope
from repro.shapley.conditional import empirical_conditional_value_function
from repro.shapley.kernel import kernel_shap
from repro.shapley.qii import shapley_qii
from repro.shapley.sampling import permutation_shapley


def legacy_expand(x, coalitions, background) -> np.ndarray:
    """The pre-engine per-coalition expansion loop."""
    x = np.asarray(x, dtype=float).ravel()
    coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n_c = coalitions.shape[0]
    n_b = background.shape[0]
    out = np.tile(background, (n_c, 1))
    for c in range(n_c):
        present = coalitions[c]
        out[c * n_b : (c + 1) * n_b, present] = x[present]
    return out


def legacy_value_function(engine, model_fn, x):
    """The pre-engine ``v(S)``: loop expand, one unchunked call, no cache."""
    x = np.asarray(x, dtype=float).ravel()
    n_b = engine.n_background

    def v(coalitions):
        rows = legacy_expand(x, coalitions, engine.background)
        preds = np.asarray(model_fn(rows), dtype=float)
        return preds.reshape(-1, n_b).mean(axis=1)

    return v


def legacy_permutation_shapley(value_fn, n_players, n_permutations=100,
                               antithetic=True, seed=0,
                               return_diagnostics=False):
    """The pre-games walk loop (one value-fn call per walk)."""
    rng = np.random.default_rng(seed)
    contributions: list[np.ndarray] = []
    pair = antithetic and n_permutations > 1
    n_batches = n_permutations // 2 if pair else n_permutations
    budget_error = None
    for __ in range(n_batches):
        perm = rng.permutation(n_players)
        perms = [perm, perm[::-1]] if antithetic else [perm]
        try:
            for p in perms:
                masks = np.zeros((n_players + 1, n_players), dtype=bool)
                for pos, player in enumerate(p):
                    masks[pos + 1] = masks[pos]
                    masks[pos + 1, player] = True
                values = np.asarray(value_fn(masks), dtype=float)
                contrib = np.zeros(n_players)
                contrib[p] = values[1:] - values[:-1]
                contributions.append(contrib)
        except BudgetExceededError as e:
            if not contributions:
                raise
            budget_error = e
            break
    stacked = np.stack(contributions)
    phi = stacked.mean(axis=0)
    std_err = (stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])
               if stacked.shape[0] > 1 else np.zeros(n_players))
    if not return_diagnostics:
        return phi, std_err
    return phi, std_err, {
        "converged": budget_error is None,
        "n_walks_completed": len(contributions),
        "n_walks_requested": n_batches * (2 if pair else 1),
        "budget_error": None if budget_error is None else str(budget_error),
    }


def _names(n):
    return [f"x{i}" for i in range(n)]


def _masking_value(explainer, x, engine):
    """The cached masking game, or the pre-engine loop (``engine=False``)."""
    if engine:
        return FeatureMaskingGame(explainer.predict_fn, x,
                                  engine=explainer.sampler)
    return legacy_value_function(explainer.sampler, explainer.predict_fn, x)


def sampling_explain(explainer, x, engine=True) -> FeatureAttribution:
    """Per-walk sampling SHAP over the cached masking game.

    ``engine=False`` walks the pre-engine value function instead (loop
    expansion, no cache): the same bits at a far larger model bill.
    """
    with guard_scope(explainer.guard_config):
        x = check_instance(x, explainer.n_features)
        n = x.shape[0]
        game = _masking_value(explainer, x, engine)
        v = game.value if engine else game
        prediction = float(explainer.predict_fn(x[None, :])[0])
        base = float(v(np.zeros((1, n), dtype=bool))[0])
        phi, std_err, convergence = permutation_shapley(
            game, n, n_permutations=explainer.n_permutations,
            antithetic=explainer.antithetic, seed=explainer.seed,
            return_diagnostics=True,
        )
    return FeatureAttribution(
        values=phi, feature_names=_names(n), base_value=base,
        prediction=prediction, method="sampling_shap",
        meta={"std_err": std_err,
              "n_permutations": explainer.n_permutations,
              "convergence": convergence},
    )


def kernel_explain(explainer, x, engine=True) -> FeatureAttribution:
    """Kernel SHAP over the cached masking game (``engine=False``: the
    pre-engine value function)."""
    with guard_scope(explainer.guard_config):
        x = check_instance(x, explainer.n_features)
        game = _masking_value(explainer, x, engine)
        prediction = float(explainer.predict_fn(x[None, :])[0])
        phi, base = kernel_shap(game, x.shape[0],
                                n_samples=explainer.n_samples,
                                seed=explainer.seed)
    return FeatureAttribution(
        values=phi, feature_names=_names(x.shape[0]), base_value=base,
        prediction=prediction, method="kernel_shap",
        meta={"n_samples": explainer.n_samples},
    )


def qii_explain(explainer, x) -> FeatureAttribution:
    """Per-walk Shapley QII."""
    with guard_scope(explainer.guard_config):
        x = check_instance(x, explainer.n_features)
        prediction = float(explainer.predict_fn(x[None, :])[0])
        phi, convergence = shapley_qii(
            explainer.predict_fn, x, explainer.background,
            n_permutations=explainer.n_permutations,
            n_samples=explainer.n_samples, seed=explainer.seed,
            max_batch_rows=explainer.max_batch_rows,
            return_diagnostics=True,
        )
    return FeatureAttribution(
        values=phi, feature_names=_names(x.shape[0]),
        base_value=prediction - float(phi.sum()), prediction=prediction,
        method="shapley_qii", meta={"convergence": convergence},
    )


def conditional_explain(explainer, x) -> FeatureAttribution:
    """Per-walk conditional SHAP over the cached k-NN value function."""
    with guard_scope(explainer.guard_config):
        x = check_instance(x, explainer.n_features)
        n = x.shape[0]
        v = empirical_conditional_value_function(
            explainer.predict_fn, explainer.data, x, k=explainer.k,
            max_batch_rows=explainer.max_batch_rows,
        )
        prediction = float(explainer.predict_fn(x[None, :])[0])
        base = float(v(np.zeros((1, n), dtype=bool))[0])
        phi, std_err, convergence = permutation_shapley(
            v, n, n_permutations=explainer.n_permutations,
            seed=explainer.seed, return_diagnostics=True,
        )
    return FeatureAttribution(
        values=phi, feature_names=_names(n), base_value=base,
        prediction=prediction, method="conditional_shap",
        meta={"std_err": std_err, "k": explainer.k,
              "convergence": convergence},
    )


ORACLES = {
    "sampling": sampling_explain,
    "kernel": kernel_explain,
    "qii": qii_explain,
    "conditional": conditional_explain,
}
