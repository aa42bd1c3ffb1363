"""Influence of training points on gradient boosted trees
[Sharchilev et al. 2018, "Finding Influential Training Samples for
Gradient Boosted Decision Trees"].

Influence functions need a twice-differentiable parametric loss, which
GBDTs lack. Sharchilev et al.'s key move: *fix the learned tree
structures* and treat only the leaf values as parameters. With our
Newton-style leaves v_l = Σ_{i∈l} g_i / (Σ_{i∈l} h_i + λ), removing
training point j changes the leaf it falls into at every stage:

    v_l^{−j} = (Σ g − g_j) / (Σ h − h_j + λ),

and the prediction change at x is the sum over stages of
lr · (v^{−j} − v) for the stages where x and j share a leaf.

This reproduces the paper's *FastLeafInfluence* approximation: the
per-stage gradients g, h are kept at their original trajectory (the full
LeafInfluence propagates the change through later stages; DESIGN.md
records the simplification). Stage-wise (g, h) are recovered by replaying
the boosting on the stored training data.
"""

from __future__ import annotations

import numpy as np

from ..core.explanation import DataAttribution
from ..models.boosting import GradientBoostingClassifier
from ..models.logistic import sigmoid

__all__ = ["LeafInfluence"]


class LeafInfluence:
    """FastLeafInfluence for :class:`GradientBoostingClassifier`."""

    def __init__(
        self,
        model: GradientBoostingClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
    ) -> None:
        if model.subsample < 1.0:
            raise ValueError(
                "LeafInfluence requires subsample=1.0 (every stage must "
                "have seen every training point)"
            )
        self.model = model
        self.X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        self.y_train = np.asarray(y_train).ravel()
        self._replay()

    def _replay(self) -> None:
        """Recompute per-stage (g, h) and leaf assignments on the train set."""
        t = np.zeros(self.y_train.shape[0])
        t[self.y_train == self.model.classes_[1]] = 1.0
        raw = np.full(t.shape[0], self.model.init_raw_)
        self._stage_g: list[np.ndarray] = []
        self._stage_h: list[np.ndarray] = []
        self._stage_leaves: list[np.ndarray] = []
        self._stage_sums: list[dict[int, tuple[float, float]]] = []
        stage_leaves = self.model.apply(self.X_train)
        for stage, tree in enumerate(self.model.estimators_):
            p = sigmoid(raw)
            g = t - p
            h = np.maximum(p * (1.0 - p), 1e-12)
            leaves = stage_leaves[:, stage]
            sums: dict[int, tuple[float, float]] = {}
            for leaf in np.unique(leaves):
                mask = leaves == leaf
                sums[int(leaf)] = (float(g[mask].sum()), float(h[mask].sum()))
            self._stage_g.append(g)
            self._stage_h.append(h)
            self._stage_leaves.append(leaves)
            self._stage_sums.append(sums)
            raw += self.model.learning_rate * tree.predict(self.X_train)

    def prediction_influence(self, x: np.ndarray) -> DataAttribution:
        """Effect of removing each training point on the raw score at x.

        ``values[j]`` estimates score(model retrained without j) −
        score(model), with structures fixed.
        """
        x = np.asarray(x, dtype=float).ravel()
        lam = self.model.leaf_l2
        lr = self.model.learning_rate
        values = np.zeros(self.X_train.shape[0])
        for stage, x_leaf in enumerate(self.model.apply(x[None, :])[0].tolist()):
            sum_g, sum_h = self._stage_sums[stage][x_leaf]
            current = sum_g / (sum_h + lam)
            shared = self._stage_leaves[stage] == x_leaf
            g = self._stage_g[stage][shared]
            h = self._stage_h[stage][shared]
            denom = sum_h - h + lam
            new_value = np.where(denom > 1e-12, (sum_g - g) / denom, 0.0)
            values[shared] += lr * (new_value - current)
        return DataAttribution(
            values=values,
            method="leaf_influence",
            meta={"n_stages": len(self.model.estimators_)},
        )

    def loss_influence(self, X_test: np.ndarray, y_test: np.ndarray
                       ) -> DataAttribution:
        """Effect of removing each point on total test log-loss.

        First-order in the raw score: d loss/d raw = (p − y), accumulated
        over test points.
        """
        X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
        y_test = np.asarray(y_test).ravel()
        t = np.zeros(y_test.shape[0])
        t[y_test == self.model.classes_[1]] = 1.0
        p = sigmoid(self.model.decision_function(X_test))
        dldraw = p - t
        values = np.zeros(self.X_train.shape[0])
        for row, x in enumerate(X_test):
            values += dldraw[row] * self.prediction_influence(x).values
        return DataAttribution(values=values, method="leaf_influence_loss")
