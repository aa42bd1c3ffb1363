"""Complaint-driven training-data debugging (Rain) [Wu et al. 2020].

The Section-3 system the tutorial highlights: a SQL aggregate is computed
over the *predictions* of an ML model ("Query 2.0"), a user files a
complaint — "this aggregate should be lower/higher" — and the system
ranks training points by their responsibility for the complaint, using
influence functions through the relaxed (probabilistic) query.

Pipeline reproduced here:

1. the aggregate ``Σ_{rows in scope} 1[f(x) = 1]`` is relaxed to
   ``Σ P_θ(y = 1 | x)``, making it differentiable in the model
   parameters θ;
2. the complaint gradient ∇_θ(aggregate) feeds the influence-function
   machinery: responsibility(z_i) = ∇aggᵀ H⁻¹ ∇ℓ(z_i) estimates how much
   deleting training point z_i moves the aggregate;
3. deleting the top-ranked points and retraining measures the fix rate —
   the paper's evaluation protocol, reproduced in E20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..influence.influence_functions import InfluenceFunctions
from ..models.logistic import LogisticRegression, sigmoid
from .planner import matching_indices

__all__ = [
    "Complaint",
    "ComplaintDebugger",
    "scope_from_relation",
]


def scope_from_relation(relation, predicate) -> np.ndarray:
    """Boolean scope mask over a serving :class:`Relation`.

    The SQL ``WHERE`` of the complained-about query, served through the
    planner's index access paths (:func:`repro.db.planner.matching_indices`)
    when the predicate is structured.
    """
    mask = np.zeros(len(relation), dtype=bool)
    mask[matching_indices(relation, predicate)] = True
    return mask


@dataclass
class Complaint:
    """A user complaint about a count-style aggregate over predictions.

    ``scope`` selects the queried rows of the serving set; ``direction``
    says which way the aggregate should move ("lower": the count is too
    high, "higher": too low).
    """

    scope: np.ndarray
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError("direction must be 'lower' or 'higher'")
        self.scope = np.asarray(self.scope, dtype=bool).ravel()

    @classmethod
    def from_relation(cls, relation, predicate,
                      direction: str = "lower") -> "Complaint":
        """Scope the complaint by a predicate over a serving relation
        (index-served for structured predicates)."""
        return cls(scope_from_relation(relation, predicate), direction)


class ComplaintDebugger:
    """Rank training points by responsibility for a complaint.

    Parameters
    ----------
    model:
        Fitted :class:`LogisticRegression` (the Query-2.0 model).
    X_train, y_train:
        Its training data — the debugging target.
    X_serve:
        The rows the SQL query runs over.
    """

    def __init__(
        self,
        model: LogisticRegression,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_serve: np.ndarray,
        damping: float = 0.0,
    ) -> None:
        self.model = model
        self.X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        self.y_train = np.asarray(y_train).ravel()
        self.X_serve = np.atleast_2d(np.asarray(X_serve, dtype=float))
        self._influence = InfluenceFunctions(
            model, self.X_train, self.y_train, damping=damping
        )

    def aggregate(self, complaint: Complaint, relaxed: bool = False) -> float:
        """The complained-about count (hard) or its relaxation (soft)."""
        rows = self.X_serve[complaint.scope]
        proba = self.model.predict_proba(rows)[:, 1]
        if relaxed:
            return float(proba.sum())
        return float((proba >= 0.5).sum())

    def _aggregate_gradient(self, complaint: Complaint) -> np.ndarray:
        """∇_θ Σ_scope σ(θᵀx) = Σ σ(1−σ)·[x, 1]."""
        rows = self.X_serve[complaint.scope]
        z = self.model.decision_function(rows)
        p = sigmoid(z)
        weights = p * (1.0 - p)
        Xb = np.hstack([rows, np.ones((rows.shape[0], 1))])
        return (weights[:, None] * Xb).sum(axis=0)

    def rank_training_points(self, complaint: Complaint) -> np.ndarray:
        """Training indices, most responsible first.

        Responsibility of z_i = predicted change of the relaxed aggregate
        if z_i were deleted, signed so that points whose deletion moves
        the aggregate in the complained direction rank first.
        """
        agg_grad = self._aggregate_gradient(complaint)
        s = self._influence.inverse_hvp(agg_grad)
        # Deleting i moves θ by +H⁻¹∇ℓ(z_i); aggregate change ≈ ∇aggᵀΔθ.
        deltas = self._influence._train_grads @ s
        if complaint.direction == "lower":
            return np.argsort(deltas)  # most negative effect first
        return np.argsort(-deltas)

    def fix_rate(
        self,
        complaint: Complaint,
        ranking: np.ndarray,
        k: int,
        model_factory,
    ) -> dict[str, float]:
        """Delete the top-k ranked points, retrain, re-evaluate.

        Returns the aggregate before/after and the achieved movement —
        the paper's headline measurement.
        """
        before = self.aggregate(complaint)
        keep = np.delete(np.arange(self.X_train.shape[0]), ranking[:k])
        retrained = model_factory().fit(self.X_train[keep], self.y_train[keep])
        rows = self.X_serve[complaint.scope]
        after = float((retrained.predict_proba(rows)[:, 1] >= 0.5).sum())
        moved = before - after if complaint.direction == "lower" else after - before
        return {"before": before, "after": after, "movement": moved, "k": k}
