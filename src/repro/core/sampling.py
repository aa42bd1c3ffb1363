"""Perturbation samplers shared by LIME, Anchors and SHAP-style explainers.

All local model-agnostic explainers share the same primitive: draw points
"near" an instance, or draw points with a chosen subset of features fixed to
the instance and the rest resampled from a background distribution. The two
samplers here implement those primitives once so every explainer perturbs
data the same way and the LIME-instability experiments (E4) can vary the
sampler in isolation.
"""

from __future__ import annotations

import numpy as np

from .coalition_engine import CoalitionEngine
from .dataset import TabularDataset

__all__ = ["GaussianPerturber", "MaskingSampler"]


class GaussianPerturber:
    """LIME-style neighborhood sampler.

    Numeric features are perturbed with Gaussian noise scaled by the
    training-column standard deviation; categorical features are resampled
    from their empirical marginal. The binary *interpretable representation*
    used by LIME (1 = feature kept at its original value) is returned
    alongside the raw perturbed rows.

    Parameters
    ----------
    data:
        Background dataset supplying column statistics.
    scale:
        Multiplier on the per-column standard deviation of the noise.
    """

    def __init__(self, data: TabularDataset, scale: float = 1.0) -> None:
        self.data = data
        self.scale = scale
        stats = data.column_stats()
        self._std = stats["std"]
        self._frequencies = stats["frequencies"]

    def sample(
        self, x: np.ndarray, n_samples: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_samples`` neighbors of ``x``.

        Returns ``(Z, B)`` where ``Z`` is the perturbed feature matrix and
        ``B`` the binary interpretable matrix: ``B[s, j] == 1`` iff sample
        ``s`` kept feature ``j`` at the original value. The first row is
        always the unperturbed instance itself.
        """
        x = np.asarray(x, dtype=float).ravel()
        d = x.shape[0]
        Z = np.tile(x, (n_samples, 1))
        B = np.ones((n_samples, d), dtype=float)
        # Row 0 stays the instance itself, as in the reference LIME code.
        flip = rng.random((n_samples, d)) < 0.5
        flip[0, :] = False
        for j in range(d):
            rows = np.where(flip[:, j])[0]
            if rows.size == 0:
                continue
            freq = self._frequencies[j]
            if freq is None:
                Z[rows, j] = x[j] + rng.normal(
                    0.0, self._std[j] * self.scale, size=rows.size
                )
                B[rows, j] = 0.0
            else:
                draws = rng.choice(len(freq), size=rows.size, p=freq)
                Z[rows, j] = draws
                # A categorical draw that happens to equal the original
                # value still counts as "kept" in the binary representation.
                B[rows, j] = (draws == x[j]).astype(float)
        return Z, B


class MaskingSampler(CoalitionEngine):
    """Coalition sampler for SHAP-style explainers.

    Given a binary coalition vector ``z`` (1 = feature present, i.e. fixed
    to the explained instance), produces raw rows in which absent features
    are imputed from a background sample — the *interventional* value
    function of Kernel SHAP.

    Since the coalition-engine rewrite this class *is* a
    :class:`repro.core.coalition_engine.CoalitionEngine`: ``expand`` is a
    single ``np.where`` broadcast (block layout unchanged), and
    ``value_function`` deduplicates repeated masks through a packed-bit
    value cache and evaluates in memory-bounded chunks.
    """

