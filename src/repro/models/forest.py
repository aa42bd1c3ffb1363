"""Random forest classifier: bagging + per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin
from .tree import DecisionTreeClassifier, TreeEnsemble

__all__ = ["RandomForestClassifier"]


@register_serializable("models.RandomForestClassifier")
class RandomForestClassifier(Serializable, TreeEnsemble, ClassifierMixin, BaseModel):
    """Ensemble of CART trees on bootstrap resamples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Features considered per split; ``None`` defaults to ⌈√d⌉.
    bootstrap:
        Draw each tree's training set with replacement; when ``False``
        every tree sees the full data (diversity then comes only from
        feature subsampling).
    """

    __persist_init__ = ("n_estimators", "max_depth", "min_samples_leaf",
                        "max_features", "bootstrap", "seed")
    __persist_state__ = ("classes_", "estimators_", "_sample_indices")

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = self._check_Xy(X, y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        max_features = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        estimators: list[DecisionTreeClassifier] = []
        self._sample_indices: list[np.ndarray] = []
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            # Refuse degenerate bootstrap draws with a single class: resample.
            attempts = 0
            while np.unique(y[idx]).size < self.classes_.size and attempts < 10:
                idx = rng.integers(0, n, size=n)
                attempts += 1
            tree.fit(X[idx], y[idx])
            estimators.append(tree)
            self._sample_indices.append(idx)
        self.estimators_ = estimators
        return self

    def _value_columns(self, trees: list) -> tuple[list, int]:
        # Align tree class order (a bootstrap sample can miss a class):
        # tree column k lands in the ensemble column of its label, and a
        # missing class reads 0. ``classes_`` is assigned before
        # ``estimators_`` by fit and by both loaders.
        columns = [np.searchsorted(self.classes_, tree.classes_) for tree in trees]
        return columns, len(self.classes_)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        tree_proba = self._leaf_values(X)
        proba = np.zeros(tree_proba.shape[1:])
        for values in tree_proba:
            proba += values
        return proba / len(self.estimators_)
