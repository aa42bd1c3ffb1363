"""Quantitative Input Influence (Datta, Sen & Zick 2016).

QII measures the influence of inputs on a *quantity of interest* by
randomized interventions: replace the feature(s) of interest with draws
from their marginal distribution while holding the rest of the instance
fixed, and record how much the quantity changes.

Three estimators from the paper:

* :func:`unary_qii` — ι(i) = E|f(x) − f(x with X_i resampled)| for one
  feature (the paper's unary influence for an individual outcome).
* :func:`set_qii` — the same with a *set* of features resampled jointly,
  which captures joint influence that unary QII misses.
* :func:`shapley_qii` — the Shapley value of the set-influence game,
  the paper's "marginal influence averaged across coalitions".
"""

from __future__ import annotations

import numpy as np

from ..core.base import PlanExplainer
from ..core.coalition_engine import batched_predict
from ..core.explanation import FeatureAttribution
from ..games.base import walk_masks
from ..games.plan import (
    mean_walks_reduce,
    permutation_plan,
    plan_values,
    shared_plan,
)
from .sampling import permutation_shapley

__all__ = ["unary_qii", "set_qii", "shapley_qii", "QIIExplainer"]


def _resample_features(
    x: np.ndarray,
    background: np.ndarray,
    features: list[int],
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows equal to ``x`` with ``features`` replaced by background draws.

    Each feature is drawn independently (the paper's fully factorized
    intervention distribution).
    """
    rows = np.tile(x, (n_samples, 1))
    for j in features:
        rows[:, j] = background[rng.integers(0, background.shape[0], n_samples), j]
    return rows


def set_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    features: list[int],
    n_samples: int = 300,
    seed: int = 0,
) -> float:
    """Influence of jointly resampling a feature set on the prediction.

    Defined as E[f(x)] − E[f(x with S resampled)] for the explained
    output, so positive influence means the features support the current
    prediction.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not features:
        return 0.0
    rng = np.random.default_rng(seed)
    rows = _resample_features(x, np.atleast_2d(background), list(features),
                              n_samples, rng)
    original = float(predict_fn(x[None, :])[0])
    return original - float(np.mean(predict_fn(rows)))


def unary_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    n_samples: int = 300,
    seed: int = 0,
) -> np.ndarray:
    """Unary QII of every feature (one-at-a-time resampling)."""
    x = np.asarray(x, dtype=float).ravel()
    return np.array([
        set_qii(predict_fn, x, background, [j], n_samples, seed + j)
        for j in range(x.shape[0])
    ])


def shapley_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    n_permutations: int = 60,
    n_samples: int = 100,
    seed: int = 0,
    max_batch_rows: int | None = None,
    return_diagnostics: bool = False,
) -> np.ndarray | tuple[np.ndarray, dict]:
    """Shapley value of the set-QII game, by permutation sampling.

    The game value of coalition S is the *negative* set influence of the
    complement (equivalently, the expected output with only S fixed),
    which makes the grand-coalition value f(x) and recovers the
    Datta et al. aggregate marginal influence.

    The value function is *stochastic* — every evaluation consumes fresh
    draws from the shared generator — so the coalition engine's value
    cache must be bypassed; only its memory-bounded batching is used.
    Intervention rows are still generated mask-by-mask in the historical
    order, so seeded results are identical to the pre-engine loop.

    With ``return_diagnostics=True`` the sampler's convergence record is
    returned alongside ``phi`` (see :func:`permutation_shapley`): a
    budget exhausted mid-estimate yields the partial estimate with
    ``converged=False`` instead of raising.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    background = np.atleast_2d(background)
    rng = np.random.default_rng(seed)

    def value_fn(masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(masks)
        out = np.zeros(masks.shape[0])
        blocks: list[np.ndarray] = []
        block_rows: list[int] = []
        for row, mask in enumerate(masks):
            absent = [j for j in range(n) if not mask[j]]
            if not absent:
                out[row] = float(predict_fn(x[None, :])[0])
                continue
            blocks.append(
                _resample_features(x, background, absent, n_samples, rng)
            )
            block_rows.append(row)
        if blocks:
            preds = batched_predict(
                predict_fn, np.concatenate(blocks), max_batch_rows
            )
            means = preds.reshape(len(block_rows), n_samples).mean(axis=1)
            out[block_rows] = means
        return out

    phi, __, diagnostics = permutation_shapley(
        value_fn, n, n_permutations=n_permutations, seed=seed,
        return_diagnostics=True,
    )
    return (phi, diagnostics) if return_diagnostics else phi


class QIIExplainer(PlanExplainer):
    """Feature attribution via Shapley QII.

    Numerically this coincides with sampling SHAP under a factorized
    background; it is kept as a distinct explainer because QII predates
    SHAP and the tutorial lists it separately (§2.1.2). Attributions are
    bitwise :func:`shapley_qii`: the walks come from a shared
    :class:`repro.games.plan.CoalitionPlan`, the interventions from the
    row's own seeded stream, and each row's model queries are fused.
    """

    method_name = "shapley_qii"

    def __init__(self, model, background: np.ndarray,
                 n_permutations: int = 60, n_samples: int = 100,
                 output: str = "auto", seed: int = 0,
                 max_batch_rows: int | None = None, guard=None) -> None:
        super().__init__(model, output, guard=guard)
        self.background = np.atleast_2d(np.asarray(background, dtype=float))
        self.n_features = self.background.shape[1]
        self.n_permutations = n_permutations
        self.n_samples = n_samples
        self.seed = seed
        self.max_batch_rows = max_batch_rows

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """Share the walk schedule; interventions stay per-row.

        QII's value function is *stochastic* — each row's evaluation
        consumes draws from its own ``default_rng(seed)`` in mask order
        — so masks are never deduplicated here. The plan contributes
        the shared permutation draws; the rows replay the intervention
        stream exactly and fuse all model calls into one batch.
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
        # The per-occurrence mask sequence, in the serial estimator's
        # exact walk order (dedup would desynchronize the rng stream).
        walk_mask_seq = [walk_masks(p) for p in plan.walk_perms]
        return plan, walk_mask_seq

    def _walk_values(self, x, prediction, walk_mask_seq, rng):
        """``evaluate(lo, hi)`` over whole walks for :func:`plan_values`.

        Draws interventions from ``rng`` in the serial mask order —
        every walk's masks, each mask's absent features in index order,
        the exact stream :func:`shapley_qii` consumes — so evaluating
        walk ranges in order replays it. The grand coalition needs no
        draw: its value is the prediction.
        """
        n = x.shape[0]

        def evaluate(lo, hi):
            values = np.empty((hi - lo, n + 1))
            blocks: list[np.ndarray] = []
            slots: list[tuple[int, int]] = []
            for w in range(lo, hi):
                for k, mask in enumerate(walk_mask_seq[w]):
                    absent = [j for j in range(n) if not mask[j]]
                    if not absent:
                        values[w - lo, k] = prediction
                        continue
                    blocks.append(_resample_features(
                        x, self.background, absent, self.n_samples, rng
                    ))
                    slots.append((w - lo, k))
            if blocks:
                preds = batched_predict(
                    self.predict_fn, np.concatenate(blocks),
                    self.max_batch_rows,
                )
                means = preds.reshape(len(slots), self.n_samples).mean(axis=1)
                for (w, k), m in zip(slots, means):
                    values[w, k] = m
            return values[None]

        return evaluate

    def _amortized_rows(self, X, lo, hi, ctx, feature_names=None):
        """Rows ``[lo, hi)``: one fused model call per row.

        Under a query budget a walk costs ``n · n_samples`` rows (every
        mask but the grand coalition draws ``n_samples`` interventions);
        the longest affordable walk prefix is returned as a partial
        estimate (see :func:`repro.games.plan.plan_values`).
        """
        plan, walk_mask_seq = ctx
        rows = X[lo:hi]
        n = X.shape[1]
        names = feature_names or [f"x{i}" for i in range(n)]
        out = []
        for x in rows:
            prediction = float(self.predict_fn(x[None, :])[0])
            # A fresh per-row generator: every row replays the stream
            # `shapley_qii` would draw for it.
            evaluate = self._walk_values(
                x, prediction, walk_mask_seq,
                np.random.default_rng(self.seed),
            )
            values, n_walks, error = plan_values(
                evaluate,
                np.arange(1, plan.n_walks + 1),
                np.full(plan.n_walks, n * self.n_samples),
            )
            phi, __ = mean_walks_reduce(values[0][:n_walks],
                                       plan.walk_perms[:n_walks])
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=prediction - float(phi.sum()),
                prediction=prediction,
                method=self.method_name,
                meta={"convergence": plan.convergence(n_walks, error)},
            ))
        return out
