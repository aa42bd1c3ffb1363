"""Asymmetric Shapley values [Frye, Rowat & Feige 2019].

ASV incorporates causal knowledge by *restricting the permutations* the
Shapley average runs over: only orderings consistent with the causal DAG
(every variable preceded by its ancestors) are allowed. Distal causes
thereby absorb the credit that flows through their descendants. The price,
which the tutorial calls out explicitly, is the symmetry axiom: two
informationally identical features can receive different attributions
purely because of their topological position.

The value function is pluggable; the default is the SCM's interventional
one, and any batched ``v(masks)`` works (e.g. the conditional one from
:mod:`repro.causal.values`, matching the paper's original formulation).

As a game, ASV is a :class:`repro.games.TopologicalGame` — uniform
permutation Shapley with the sampler restricted to linear extensions of
the DAG — run through the shared estimator, which adds position-keyed
coalition caching: every walk re-evaluates ∅ and the short prefixes at
the same batch positions, and those cost a dictionary lookup instead of
``n_samples`` SCM draws.
"""

from __future__ import annotations

import numpy as np

from ..core.explanation import FeatureAttribution
from ..games.adapters import TopologicalGame, sample_topological_order
from ..games.engine import game_value_function
from ..games.estimators import permutation_estimator
from ..obs import instrument_explainer
from .scm import StructuralCausalModel

__all__ = ["sample_topological_permutation", "AsymmetricShapleyExplainer"]


def sample_topological_permutation(
    scm: StructuralCausalModel,
    feature_order: list[str],
    rng: np.random.Generator,
) -> np.ndarray:
    """A random linear extension of the causal DAG over the features.

    Implemented as repeated uniform choice among currently source-like
    features (Kahn's algorithm with random tie-breaking). Only edges among
    the listed features constrain the order. Delegates to the generic
    :func:`repro.games.sample_topological_order`.
    """
    return sample_topological_order(scm.parents, feature_order, rng)


@instrument_explainer
class AsymmetricShapleyExplainer:
    """Shapley values averaged over causally-consistent orderings only."""

    method_name = "asymmetric_shapley"

    def __init__(
        self,
        model,
        scm: StructuralCausalModel,
        feature_order: list[str],
        n_permutations: int = 40,
        n_samples: int = 400,
        seed: int = 0,
    ) -> None:
        from ..core.base import as_predict_fn

        self.predict_fn = as_predict_fn(model)
        self.scm = scm
        self.feature_order = list(feature_order)
        self.n_permutations = n_permutations
        self.n_samples = n_samples
        self.seed = seed

    def explain(
        self,
        x: np.ndarray,
        feature_names: list[str] | None = None,
        value_fn=None,
    ) -> FeatureAttribution:
        x = np.asarray(x, dtype=float).ravel()
        n = x.shape[0]
        game = TopologicalGame(
            self.scm, self.predict_fn, self.feature_order, x,
            n_samples=self.n_samples, seed=self.seed, value_fn=value_fn,
        )
        est = permutation_estimator(
            game,
            n_permutations=self.n_permutations,
            antithetic=False,
            seed=self.seed,
            aggregate="sum_counts",
        )
        # The interventional value function seeds by batch position, so
        # the base is ∅ evaluated at position 0, as every walk starts.
        base = float(game_value_function(game)(
            np.zeros((1, n), dtype=bool))[0])
        names = feature_names or self.feature_order
        return FeatureAttribution(
            values=est.values,
            feature_names=names,
            base_value=base,
            prediction=float(self.predict_fn(x[None, :])[0]),
            method=self.method_name,
            meta={"n_permutations": self.n_permutations,
                  "convergence": est.diagnostics},
        )
