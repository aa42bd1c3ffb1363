"""Conditional (on-manifold) SHAP via empirical neighbor conditioning.

The tutorial's §2.1.2 criticisms of Shapley methods (Kumar et al. 2020)
center on the choice of value function: the *interventional/marginal*
v(S) = E[f(x_S, X̄_{N∖S})] breaks feature dependence and evaluates the
model off-manifold, while the *conditional* v(S) = E[f(X) | X_S = x_S]
respects the data distribution but lets attribution leak onto correlated
— even model-unused — features. Both behaviours are real and the
disagreement is the point; E26 measures it.

Conditioning on arbitrary subsets of an empirical sample has no clean
closed form, so the standard practical estimator is used: conditional
expectations are Monte-Carlo averages over the k nearest training rows
*in the conditioned coordinates* (distances standardized per column),
with the conditioned coordinates pinned to x.
"""

from __future__ import annotations

import numpy as np

from ..core.base import PlanExplainer
from ..core.coalition_engine import (
    CoalitionValueCache,
    _cached_values,
    batched_predict,
)
from ..core.explanation import FeatureAttribution
from ..games.plan import (
    mean_walks_reduce,
    permutation_plan,
    plan_values,
    shared_plan,
)
from ..obs.trace import span

__all__ = ["empirical_conditional_value_function", "ConditionalShapExplainer"]


def empirical_conditional_value_function(
    predict_fn,
    data: np.ndarray,
    x: np.ndarray,
    k: int = 30,
    cache: bool = True,
    max_batch_rows: int | None = None,
):
    """Batched v(S) = Ê[f(X) | X_S = x_S] by k-NN conditioning on ``data``.

    For the empty coalition this is the plain mean prediction; for the
    full coalition it is exactly f(x).

    The estimator is deterministic in the mask (stable-sorted neighbor
    selection, no sampling), so repeated masks are served from a
    packed-bit coalition-value cache by default — permutation walks
    re-visit the same prefixes constantly. Fresh masks have their k
    neighbor rows stacked into one memory-bounded model call.
    ``cache=False`` evaluates every mask as given.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    scale = np.maximum(data.std(axis=0), 1e-12)
    k = min(k, data.shape[0])
    store = CoalitionValueCache() if cache else None

    def _neighbor_rows(mask: np.ndarray) -> np.ndarray:
        deltas = (data[:, mask] - x[mask]) / scale[mask]
        distances = np.sqrt((deltas ** 2).sum(axis=1))
        neighbors = np.argsort(distances, kind="stable")[:k]
        rows = data[neighbors].copy()
        rows[:, mask] = x[mask]
        return rows

    def v(masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))

        def evaluate(rows):
            out = np.empty(len(rows))
            fresh: list[int] = []
            for j, mask in enumerate(masks[rows]):
                if not mask.any():
                    out[j] = float(np.mean(
                        batched_predict(predict_fn, data, max_batch_rows)
                    ))
                elif mask.all():
                    out[j] = float(predict_fn(x[None, :])[0])
                else:
                    fresh.append(j)
            if fresh:
                # Every other mask's k neighbor rows in one stacked call.
                preds = batched_predict(
                    predict_fn,
                    np.concatenate([_neighbor_rows(masks[rows[j]])
                                    for j in fresh]),
                    max_batch_rows,
                )
                out[fresh] = preds.reshape(len(fresh), k).mean(axis=1)
            return out

        if store is None:
            return evaluate(np.arange(masks.shape[0]))
        return _cached_values(np.packbits(masks, axis=1), store, evaluate)

    v.cache = store
    return v


class ConditionalShapExplainer(PlanExplainer):
    """Shapley values of the empirical conditional-expectation game.

    Attributions are bitwise :func:`repro.shapley.permutation_shapley`
    over :func:`empirical_conditional_value_function`: the seeded walks'
    distinct coalitions come from a shared
    :class:`repro.games.plan.CoalitionPlan` and are evaluated once per
    row in one stacked model call.

    Parameters
    ----------
    data:
        Reference sample defining the manifold/conditionals.
    k:
        Neighbors per conditional expectation.
    n_permutations:
        Permutation-sampling budget for the Shapley average.
    """

    method_name = "conditional_shap"

    def __init__(
        self,
        model,
        data: np.ndarray,
        k: int = 30,
        n_permutations: int = 100,
        output: str = "auto",
        seed: int = 0,
        max_batch_rows: int | None = None,
        guard=None,
    ) -> None:
        super().__init__(model, output, guard=guard)
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        self.n_features = self.data.shape[1]
        self.k = k
        self.n_permutations = n_permutations
        self.seed = seed
        self.max_batch_rows = max_batch_rows

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """Shared walk plan plus the row-independent ∅ value.

        v(∅) is the mean prediction over the reference sample — the
        same number for every row — so it is computed once here instead
        of re-averaging the whole dataset per row.
        """
        n = X.shape[1]
        key = ("permutation", n, self.n_permutations, True, self.seed)
        plan = shared_plan(
            self,
            key,
            lambda: permutation_plan(
                n, n_permutations=self.n_permutations, seed=self.seed
            ),
            X.shape[0],
        )
        empty_value = float(np.mean(
            batched_predict(self.predict_fn, self.data, self.max_batch_rows)
        ))
        return plan, empty_value

    def _amortized_rows(self, X, lo, hi, ctx, feature_names=None):
        """Rows ``[lo, hi)``: every unique coalition in one stacked call.

        The conditional value function is deterministic in the mask, so
        evaluating the plan's deduplicated masks once per row and
        gathering through ``value_index`` reproduces exactly the cached
        per-walk values. ∅ is the plan's first unique mask (walk 0
        starts there) and comes from the context; under a query budget
        the grand coalition costs one row and every other mask ``k``
        (see :func:`repro.games.plan.plan_values`).
        """
        plan, empty_value = ctx
        rows = X[lo:hi]
        n = X.shape[1]
        k = min(self.k, self.data.shape[0])
        unit_rows = np.where(plan.unique_masks.all(axis=1), 1, k)
        unit_rows[plan.empty_index] = 0
        names = feature_names or [f"x{i}" for i in range(n)]
        out = []
        for x in rows:
            prediction = float(self.predict_fn(x[None, :])[0])
            v = empirical_conditional_value_function(
                self.predict_fn, self.data, x, k=self.k, cache=False,
                max_batch_rows=self.max_batch_rows,
            )

            def evaluate(a, b, v=v):
                with span("coalition_eval", n_coalitions=b - a,
                          game="plan", amortized=True):
                    head = [empty_value] if a == 0 else []
                    masks = plan.unique_masks[max(a, 1):b]
                    tail = v(masks) if masks.shape[0] else []
                    return np.concatenate([head, tail])[None]

            values, n_walks, error = plan_values(
                evaluate, plan.walk_ends, unit_rows
            )
            plan.record_lookups(1, n_walks)
            phi, std_err = mean_walks_reduce(
                values[0][plan.value_index[:n_walks]],
                plan.walk_perms[:n_walks],
            )
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=empty_value,
                prediction=prediction,
                method=self.method_name,
                meta={"std_err": std_err, "k": self.k,
                      "convergence": plan.convergence(n_walks, error)},
            ))
        return out
