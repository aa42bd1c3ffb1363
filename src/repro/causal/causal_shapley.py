"""Causal Shapley values [Heskes et al. 2020].

Causal Shapley values keep all four Shapley axioms but replace the
coalition value function with the interventional one,
v(S) = E[f(X) | do(X_S = x_S)], evaluated on a structural causal model.
For each permutation π and player i with predecessors S, the paper
further splits the marginal contribution into

* a **direct** effect — the change from plugging x_i into the model while
  the remaining features keep their do(x_S) distribution, and
* an **indirect** effect — the change from the intervention do(X_i = x_i)
  shifting the distribution of i's causal descendants.

Both parts are estimated here by permutation sampling against the SCM;
their sums are the causal Shapley values, and the direct part alone
recovers (in expectation) the marginal-SHAP behaviour, which is how E10
shows where the two disagree.

The walk (two SCM expectations per step, a global seed counter, the
direct/indirect ledger) lives in :class:`repro.games.InterventionalGame`
and is driven by the shared permutation estimator. The game steps a
global seed counter, so evaluation order is part of its semantics and
it always runs serially.
"""

from __future__ import annotations

import numpy as np

from ..core.explanation import FeatureAttribution
from ..games.adapters import InterventionalGame
from ..games.estimators import permutation_estimator
from ..obs import instrument_explainer
from .scm import StructuralCausalModel

__all__ = ["CausalShapleyExplainer"]


@instrument_explainer
class CausalShapleyExplainer:
    """Interventional Shapley values with direct/indirect decomposition.

    Parameters
    ----------
    model:
        Callable or fitted model; normalized output is explained.
    scm:
        The causal model over (at least) the feature variables.
    feature_order:
        SCM variable names in model-column order.
    n_permutations, n_samples:
        Monte-Carlo budgets: orderings sampled, and SCM draws per
        expectation.
    """

    method_name = "causal_shapley"

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

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = np.asarray(x, dtype=float).ravel()
        game = InterventionalGame(
            self.scm, self.predict_fn, self.feature_order, x,
            n_samples=self.n_samples, seed=self.seed,
        )
        est = permutation_estimator(
            game,
            n_permutations=self.n_permutations,
            antithetic=False,
            seed=self.seed,
            aggregate="sum_counts",
        )
        # The direct/indirect ledger fixes the accumulation order:
        # summing the halves (not est.values' whole-step differences)
        # keeps the published values bitwise identical to the
        # per-step loop the parity tests replay.
        phi_direct = game.direct_sums / self.n_permutations
        phi_indirect = game.indirect_sums / self.n_permutations
        phi = phi_direct + phi_indirect
        base = game.base_value()
        names = feature_names or self.feature_order
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=float(self.predict_fn(x[None, :])[0]),
            method=self.method_name,
            meta={"direct": phi_direct, "indirect": phi_indirect,
                  "convergence": est.diagnostics},
        )
