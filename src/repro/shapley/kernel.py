"""Kernel SHAP: Shapley values via weighted linear regression [Lundberg & Lee].

Kernel SHAP recovers Shapley values as the solution of a weighted least
squares problem over coalitions z ∈ {0,1}^n:

    min_φ Σ_S π(S) (v(S) − φ_0 − Σ_{i∈S} φ_i)²,
    π(S) = (n − 1) / (C(n,|S|) · |S| · (n − |S|)),

with the efficiency constraint φ_0 = v(∅), Σφ_i = v(N) − v(∅) imposed
exactly by variable elimination. Coalition enumeration follows the
reference implementation: subset sizes are filled from both ends (size 1
and n−1 first, which carry the most kernel weight) and enumerated
completely while the budget allows; any leftover budget samples the
remaining sizes proportionally to their weight.

The solver lives in the shared estimator suite
(:func:`repro.games.estimators.kernel_wls_estimator`); this module
keeps the historical names and the explainer on top.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import PlanExplainer
from ..core.explanation import FeatureAttribution
from ..core.sampling import MaskingSampler
from ..games.estimators import (
    kernel_wls_estimator,
    shapley_kernel_weight,
    solve_kernel_wls,
)
from ..games.plan import kernel_plan, shared_plan

__all__ = ["kernel_shap", "shapley_kernel_weight", "KernelShapExplainer"]


def kernel_shap(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_samples: int = 2048,
    seed: int = 0,
    backend: str | None = None,
    n_procs: int | None = None,
) -> tuple[np.ndarray, float]:
    """Kernel SHAP estimate; returns ``(phi, base_value)``.

    ``n_samples`` bounds the number of coalition evaluations (in addition
    to the empty and grand coalitions, which are always evaluated).
    ``backend`` (:mod:`repro.exec`) shards the coalition evaluations
    when ``value_fn`` is a shard-eligible game — bitwise-identical
    output either way.
    """
    return kernel_wls_estimator(
        value_fn, n_players=n_players, n_samples=n_samples, seed=seed,
        backend=backend, n_procs=n_procs,
    )


class KernelShapExplainer(PlanExplainer):
    """Model-agnostic Kernel SHAP with the interventional value function.

    The coalition design (rows and kernel weights, the seeded draw of
    :func:`kernel_shap`) is a shared :class:`repro.games.plan.CoalitionPlan`;
    each explained row evaluates its distinct coalitions in one fused
    grid and solves the same WLS step, so ``explain`` is bitwise
    :func:`kernel_shap` over the cached masking game. Under a guard
    budget the design is all-or-nothing: a design that does not fit
    raises :class:`repro.robust.BudgetExceededError`.

    Parameters
    ----------
    background:
        Background sample; absent features are imputed from it.
    n_samples:
        Coalition evaluation budget per explanation.
    max_batch_rows:
        Memory bound on rows per model call (see the coalition engine).
    """

    method_name = "kernel_shap"

    def __init__(
        self,
        model,
        background: np.ndarray,
        n_samples: int = 2048,
        max_background: int = 100,
        output: str = "auto",
        seed: int = 0,
        max_batch_rows: int | None = None,
        guard=None,
    ) -> None:
        super().__init__(model, output, guard=guard)
        self.sampler = MaskingSampler(
            background, max_background=max_background, max_batch_rows=max_batch_rows
        )
        self.n_features = self.sampler.background.shape[1]
        self.n_samples = n_samples
        self.seed = seed

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """One shared Kernel SHAP design per (n, budget, seed)."""
        n = X.shape[1]
        key = ("kernel", n, self.n_samples, self.seed)
        return shared_plan(
            self,
            key,
            lambda: kernel_plan(n, n_samples=self.n_samples, seed=self.seed),
            X.shape[0],
        )

    def _amortized_rows(self, X, lo, hi, plan, feature_names=None):
        """Rows ``[lo, hi)``: one fused value grid, one WLS solve per row.

        The coalition design (rows *and* kernel weights) is the
        estimator's own seeded draw, so feeding each row's fused values
        into the identical :func:`solve_kernel_wls` step reproduces
        :func:`kernel_shap` bitwise; one player takes its closed form
        ``v(N) − v(∅)``, as the estimator does.
        """
        rows = X[lo:hi]
        n = X.shape[1]
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in rows]
        values = self.sampler.batch_value_matrix(
            self.predict_fn, rows, plan.unique_masks
        )
        plan.record_lookups(rows.shape[0])
        names = feature_names or [f"x{i}" for i in range(n)]
        idx = plan.value_index
        out = []
        for r in range(rows.shape[0]):
            row_vals = values[r]
            v_empty = float(row_vals[idx[0]])
            v_full = float(row_vals[idx[1]])
            phi = (
                solve_kernel_wls(
                    plan.masks, plan.weights, row_vals[idx[2:]], v_empty,
                    v_full,
                )
                if n > 1
                else np.array([v_full - v_empty])
            )
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=v_empty,
                prediction=predictions[r],
                method=self.method_name,
                meta={"n_samples": self.n_samples},
            ))
        return out
