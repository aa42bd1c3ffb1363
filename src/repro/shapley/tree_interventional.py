"""Interventional TreeSHAP: exact Shapley values against a background
distribution [Lundberg et al. 2020, "Independent TreeSHAP"].

Path-dependent TreeSHAP explains the tree's own cover-weighted
conditional-expectation game, which inherits the training data's feature
correlations. The *interventional* variant explains the marginal game

    v(S) = E_z[ T(x_S, z_{N∖S}) ]

against explicit background rows, the same game Kernel SHAP approximates
— but exactly and in O(L·D) per (instance, background) pair.

The closed form per background row z: a leaf ℓ is reachable under
coalition S iff every path feature whose conditions only **x** satisfies
is in S (call them A, |A| = a) and every path feature whose conditions
only **z** satisfies is out of S (B, |B| = b); features satisfying both
ways are free, features satisfying neither kill the leaf. The Shapley
value of that reachability indicator is

    φ_i = (a−1)!·b!/(a+b)!   for i ∈ A,
    φ_j = −a!·(b−1)!/(a+b)!  for j ∈ B,

so each leaf contributes its value times these weights — summed over
leaves and averaged over the background.

It runs on the leaf-path table of :mod:`repro.shapley.tree`: an
element's one fraction under a row says whether that row satisfies the
element's conditions. The background's one fractions do not depend on
the explained row, so they are evaluated once, when the explainer is
built, as its fused context; each batch then classifies every (background row,
path element) pair with elementwise numpy and scatters the weighted
terms into features as the path-dependent kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..core.base import AttributionExplainer
from ..core.explanation import FeatureAttribution
from .tree import (TreePrecompute, _intercept, _model_output, _n_features,
                   _row_chunks, tree_precompute)

__all__ = ["InterventionalTreeShapExplainer"]


def _coalition_weights(K: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a−1)!b!/(a+b)!`` and ``a!(b−1)!/(a+b)!`` for ``a + b < K``;
    0 where the factorial is undefined (``a = 0``, resp. ``b = 0``)."""
    x_weight = np.zeros((K, K))
    z_weight = np.zeros((K, K))
    for a in range(K):
        for b in range(K - a):
            total = factorial(a + b)
            if a > 0:
                x_weight[a, b] = factorial(a - 1) * factorial(b) / total
            if b > 0:
                z_weight[a, b] = factorial(a) * factorial(b - 1) / total
    return x_weight, z_weight


@dataclass
class _BackgroundContext:
    """The row-independent half of interventional TreeSHAP."""

    table: TreePrecompute
    background_one: np.ndarray  # (n_background, paths, K) bool
    x_weight: np.ndarray
    z_weight: np.ndarray
    base_value: float

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        return np.concatenate([
            self._values(X[lo:hi])
            for lo, hi in _row_chunks(X.shape[0], self.background_one.size)
        ])

    def _values(self, X: np.ndarray) -> np.ndarray:
        x_one = self.table.one_fractions(X)[None]
        z_one = self.background_one[:, None]
        x_only = x_one & ~z_one
        z_only = z_one & ~x_one
        alive = (x_one | z_one).all(axis=-1)
        a = x_only.sum(axis=-1)
        b = z_only.sum(axis=-1)
        x_weight = np.where(alive, self.x_weight[a, b], 0.0)[..., None]
        z_weight = np.where(alive, self.z_weight[a, b], 0.0)[..., None]
        per_background = x_only * x_weight - z_only * z_weight
        # Summed in background order by whole slices: numpy's own
        # reduction may pick its order by shape, i.e. by the row count.
        terms = per_background[0]
        for term in per_background[1:]:
            terms = terms + term
        n_background = self.background_one.shape[0]
        return self.table.scatter(
            self.table.value[:, None] * terms / n_background
        )


class InterventionalTreeShapExplainer(AttributionExplainer):
    """Background-based exact SHAP for any tree model in the library.

    Same ensemble decomposition and leaf-path table as
    :class:`TreeShapExplainer`; the games add across trees, so every
    path carries its ensemble weight. ``explain`` and ``explain_batch``
    are the shared fused path of :class:`AttributionExplainer`. Trees
    route NaN, so rows are checked for width only (``accepts_nan``).
    """

    method_name = "interventional_tree_shap"
    accepts_nan = True

    def __init__(self, model, background: np.ndarray,
                 max_background: int = 50, seed: int = 0) -> None:
        super().__init__(model)
        background = np.atleast_2d(np.asarray(background, dtype=float))
        if background.shape[0] > max_background:
            rng = np.random.default_rng(seed)
            idx = rng.choice(background.shape[0], max_background, replace=False)
            background = background[idx]
        self.background = background
        self.n_features = _n_features(model)
        table = tree_precompute(model)
        background_one = table.one_fractions(background)
        reached = background_one.all(axis=-1)
        x_weight, z_weight = _coalition_weights(table.zero.shape[1])
        self._context = _BackgroundContext(
            table=table,
            background_one=background_one,
            x_weight=x_weight,
            z_weight=z_weight,
            base_value=float(np.sum(reached * table.value))
            / background.shape[0] + _intercept(model),
        )

    def _amortized_context(self, X: np.ndarray,
                           feature_names: list[str] | None = None
                           ) -> _BackgroundContext:
        return self._context

    def _amortized_rows(self, X: np.ndarray, lo: int, hi: int,
                        ctx: _BackgroundContext,
                        feature_names: list[str] | None = None
                        ) -> list[FeatureAttribution]:
        """Rows ``[lo, hi)`` against the background context."""
        preds = _model_output(self.model, X[lo:hi])
        phi = ctx.shap_values(X[lo:hi])
        names = feature_names or [f"x{i}" for i in range(X.shape[1])]
        n_background = self.background.shape[0]
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=ctx.base_value,
                prediction=float(preds[r]),
                method=self.method_name,
                meta={"n_background": n_background},
            )
            for r in range(hi - lo)
        ]
