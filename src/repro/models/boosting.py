"""Gradient boosted trees for regression and binary classification.

The classifier boosts in log-odds space with the logistic deviance loss;
each stage fits a regression tree to the negative gradient and then
re-estimates leaf values with a single Newton step (as in standard GBM).
The ensemble exposes its stages and leaf structure because both TreeSHAP
and the tree-influence explainer traverse them, and tree influence
additionally needs leaf values re-derivable from per-sample gradient and
Hessian sums. Prediction descends all stages at once through the stacked
:class:`~repro.models.tree.TreeTable` and then adds the stage values one
by one, in stage order, so the float result is that of a per-stage sum.
"""

from __future__ import annotations

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin, RegressorMixin
from .logistic import sigmoid
from .tree import DecisionTreeRegressor, TreeEnsemble

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class _BaseGBM(Serializable, TreeEnsemble, BaseModel):
    __persist_init__ = ("n_estimators", "learning_rate", "max_depth",
                        "min_samples_leaf", "subsample", "seed")
    __persist_state__ = ("init_raw_", "estimators_")

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed

    def _stage_steps(self, X: np.ndarray) -> np.ndarray:
        """``learning_rate * value`` of every stage, ``(n_stages, n_rows)``."""
        return self.learning_rate * self._leaf_values(X)[..., 0]

    def _raw_predict(self, X: np.ndarray) -> np.ndarray:
        steps = self._stage_steps(X)
        out = np.full(steps.shape[1], self.init_raw_)
        for step in steps:
            out += step
        return out

    def staged_raw_predict(self, X: np.ndarray):
        """Iterator over the raw prediction after each boosting stage.

        ``X`` is validated (and every stage descended) at call time, so
        a malformed input raises here rather than at the first ``next``.
        """
        steps = self._stage_steps(X)

        def stages():
            out = np.full(steps.shape[1], self.init_raw_)
            for step in steps:
                out = out + step
                yield out

        return stages()


@register_serializable("models.GradientBoostingRegressor")
class GradientBoostingRegressor(RegressorMixin, _BaseGBM):
    """Least-squares boosting: each stage fits the current residuals."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = self._check_Xy(X, y)
        y = y.astype(float)
        rng = np.random.default_rng(self.seed)
        self.init_raw_ = float(y.mean())
        raw = np.full(y.shape[0], self.init_raw_)
        estimators: list[DecisionTreeRegressor] = []
        n = y.shape[0]
        for _ in range(self.n_estimators):
            residual = y - raw
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(1, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[idx], residual[idx])
            raw += self.learning_rate * tree.predict(X)
            estimators.append(tree)
        self.estimators_ = estimators
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._raw_predict(X)


@register_serializable("models.GradientBoostingClassifier")
class GradientBoostingClassifier(ClassifierMixin, _BaseGBM):
    """Binary logistic boosting with Newton-step leaf values.

    Raw scores are log-odds; ``predict_proba`` applies the sigmoid. Leaf
    values are ``Σ g / (Σ h + λ)`` over the leaf's samples, with ``g`` the
    negative gradient (y − p) and ``h = p(1 − p)`` the Hessian — the form
    the LeafInfluence-style explainer differentiates.
    """

    __persist_init__ = _BaseGBM.__persist_init__ + ("leaf_l2",)
    __persist_state__ = _BaseGBM.__persist_state__ + ("classes_",)

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        leaf_l2: float = 1e-6,
        seed: int = 0,
    ) -> None:
        super().__init__(n_estimators, learning_rate, max_depth,
                         min_samples_leaf, subsample, seed)
        self.leaf_l2 = leaf_l2

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X, y = self._check_Xy(X, y)
        self.classes_, encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier is binary")
        t = encoded.astype(float)
        rng = np.random.default_rng(self.seed)
        # Initial raw score: log-odds of the base rate (clipped).
        p0 = np.clip(t.mean(), 1e-6, 1 - 1e-6)
        self.init_raw_ = float(np.log(p0 / (1 - p0)))
        raw = np.full(t.shape[0], self.init_raw_)
        estimators: list[DecisionTreeRegressor] = []
        n = t.shape[0]
        for _ in range(self.n_estimators):
            p = sigmoid(raw)
            g = t - p                  # negative gradient
            h = np.maximum(p * (1 - p), 1e-12)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(1, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[idx], g[idx])
            self._newton_leaf_values(tree, X[idx], g[idx], h[idx])
            raw += self.learning_rate * tree.predict(X)
            estimators.append(tree)
        self.estimators_ = estimators
        return self

    def _newton_leaf_values(self, tree: DecisionTreeRegressor,
                            X: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
        """Replace mean-of-gradients leaf values by Σg / (Σh + λ).

        Runs before the stage joins the ensemble, so the stacked table
        built from ``estimators_`` sees the Newton values.
        """
        leaves = tree.tree_.apply(X)
        for leaf in np.unique(leaves):
            mask = leaves == leaf
            tree.tree_.value[leaf, 0] = g[mask].sum() / (h[mask].sum() + self.leaf_l2)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw log-odds scores."""
        return self._raw_predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
