"""Model base classes for the from-scratch ML substrate.

Every model follows the familiar fit/predict convention. Classifiers store
``classes_`` and expose ``predict_proba``; models used by influence-based
explainers additionally expose per-sample gradients and Hessians of their
training loss (see :class:`DifferentiableModel`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..robust.errors import InputValidationError

__all__ = ["BaseModel", "ClassifierMixin", "RegressorMixin", "DifferentiableModel"]


class BaseModel(ABC):
    """Minimal fit/predict contract."""

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseModel":
        """Train on ``(X, y)`` and return ``self``."""

    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict labels (classifiers) or values (regressors)."""

    def _check_fitted(self, attr: str) -> None:
        if not hasattr(self, attr):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    @staticmethod
    def _check_X(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        return X

    @staticmethod
    def _check_width(X: np.ndarray, n_features: int | None) -> np.ndarray:
        """:meth:`_check_X` plus the fitted-width and non-empty contract.

        Raises :class:`InputValidationError` (a ``ValueError``) when ``X``
        has no rows or a column count other than ``n_features`` (``None``
        skips the width check).
        """
        X = BaseModel._check_X(X)
        if n_features is not None and X.shape[1] != n_features:
            raise InputValidationError(
                f"X has {X.shape[1]} features, but the model was fitted "
                f"on {n_features}"
            )
        if X.shape[0] == 0:
            raise InputValidationError("X has no rows")
        return X

    @staticmethod
    def _check_Xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = BaseModel._check_X(X)
        y = np.asarray(y).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        return X, y


class ClassifierMixin:
    """Adds probability-based prediction and accuracy scoring."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        return float(np.mean(self.predict(X) == np.asarray(y).ravel()))

    @staticmethod
    def _encode_labels(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map arbitrary labels to 0..K-1; returns (classes, encoded)."""
        classes, encoded = np.unique(y, return_inverse=True)
        return classes, encoded


class RegressorMixin:
    """Adds R^2 scoring."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 on ``(X, y)``."""
        y = np.asarray(y, dtype=float).ravel()
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot


class DifferentiableModel(BaseModel):
    """A model whose training loss has per-sample gradients and a Hessian.

    Influence functions, PrIU and gradient Shapley all require white-box
    access to, for parameter vector θ and training point (x, y):

    * ``grad(x, y)`` — ∇_θ ℓ(x, y; θ̂) at the fitted parameters,
    * ``hessian(X, y)`` — Σ ∇²_θ ℓ over a dataset (plus regularization),
    * ``params`` / ``set_params_vector`` — flat parameter access.
    """

    @property
    @abstractmethod
    def params(self) -> np.ndarray:
        """Flat copy of the fitted parameter vector."""

    @abstractmethod
    def set_params_vector(self, theta: np.ndarray) -> None:
        """Overwrite the fitted parameters with a flat vector."""

    @abstractmethod
    def grad(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample loss gradients, shape ``(n_samples, n_params)``."""

    @abstractmethod
    def hessian(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Total loss Hessian over ``(X, y)``, shape ``(n_params, n_params)``."""
