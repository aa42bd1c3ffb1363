"""Distributional and Beta Shapley data values [Ghorbani+ 2020; Kwon & Zou].

Data Shapley values a point *relative to one fixed dataset*; the
tutorial's §2.3.1 highlights two follow-ups addressing that:

* **Distributional Shapley** — the expected Data Shapley value of the
  point over datasets resampled from the underlying distribution:
  ν(z) = E_{D ~ P^{m}}[φ(z; D ∪ {z})]. Estimated here by drawing
  datasets from a large pool and averaging the point's marginal
  contributions at random prefix positions (the paper's one-sample
  estimator of the Shapley average over cardinalities).
* **Beta(α, β) Shapley** — reweights marginal contributions by subset
  size: uniform Shapley (α = β = 1) down-weights nothing, while e.g.
  Beta(16, 1) emphasizes small-subset contributions that carry the
  signal about data quality.

Both estimators now run over a :class:`repro.games.DataValueGame`
through the shared suite (:func:`repro.games.estimators.stratified_estimator`
and :func:`repro.games.estimators.permutation_estimator` with
``position_weights``).
"""

from __future__ import annotations

from math import lgamma

import numpy as np

from ..core.explanation import DataAttribution
from ..games.adapters import DataValueGame
from ..games.estimators import permutation_estimator, stratified_estimator
from .utility import UtilityFunction

__all__ = [
    "distributional_shapley",
    "beta_shapley",
    "beta_weights",
]


def distributional_shapley(
    point_index: int,
    utility: UtilityFunction,
    n_draws: int = 100,
    max_cardinality: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """Distributional Shapley value of one training point.

    Each draw picks a random cardinality m and a random m-subset of the
    *other* points (standing in for a fresh dataset from P), and records
    the marginal contribution of adding the point. Returns
    ``(value, standard_error)``.
    """
    n = utility.n_points
    if not 0 <= point_index < n:
        raise IndexError(point_index)
    return stratified_estimator(
        DataValueGame(utility),
        point_index,
        n_draws=n_draws,
        max_cardinality=max_cardinality,
        seed=seed,
    )


def beta_weights(n: int, alpha: float, beta: float) -> np.ndarray:
    """Normalized Beta(α, β) weights over prefix sizes j = 1..n.

    ``w[j-1]`` is the weight of a marginal contribution made at position
    j of a permutation (i.e. to a coalition of size j−1), following
    Kwon & Zou's ω(j) ∝ B(j+β−1, n−j+α) / B(j, n−j+1).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")

    def log_beta_fn(a: float, b: float) -> float:
        return lgamma(a) + lgamma(b) - lgamma(a + b)

    j = np.arange(1, n + 1, dtype=float)
    log_w = np.array([
        log_beta_fn(jj + beta - 1.0, n - jj + alpha) - log_beta_fn(jj, n - jj + 1.0)
        for jj in j
    ])
    w = np.exp(log_w - log_w.max())
    return w * n / w.sum()


def beta_shapley(
    utility: UtilityFunction,
    alpha: float = 16.0,
    beta: float = 1.0,
    n_permutations: int = 200,
    seed: int = 0,
) -> DataAttribution:
    """Beta(α, β)-weighted semivalues of every training point.

    α = β = 1 recovers Data Shapley (up to Monte-Carlo noise); α > 1
    emphasizes small coalitions. Estimated by permutation sampling with
    position-dependent weights.
    """
    n = utility.n_points
    weights = beta_weights(n, alpha, beta)
    est = permutation_estimator(
        DataValueGame(utility),
        n_permutations=n_permutations,
        antithetic=False,
        seed=seed,
        position_weights=weights,
        empty_value=utility.empty_score,
        aggregate="sum_counts",
        min_count=1e-12,
    )
    return DataAttribution(
        values=est.values,
        method=f"beta_shapley({alpha:g},{beta:g})",
        meta={
            "alpha": alpha,
            "beta": beta,
            "n_permutations": n_permutations,
            "convergence": est.diagnostics,
        },
    )
