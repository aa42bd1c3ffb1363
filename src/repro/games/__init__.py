"""Cooperative games: one protocol, one evaluator, one estimator suite.

The unification layer the tutorial's structure implies: SHAP/QII, Data
Shapley, Shapley of tuples, asymmetric and causal Shapley are all
Shapley values over different cooperative games, so the library defines
the game once (:mod:`repro.games.base`), evaluates every game through
the same cached/chunked/guarded pipeline (:mod:`repro.games.engine`),
estimates with a shared suite (:mod:`repro.games.estimators`), and
adapts each workload in :mod:`repro.games.adapters`.

A bespoke-loop lint (``scripts/check_no_bespoke_shapley.py``, enforced
in tier-1) keeps new permutation-accumulation loops from growing back
outside this package.
"""

from .adapters import (
    DataValueGame,
    FeatureMaskingGame,
    GradientGame,
    InterventionalGame,
    TopologicalGame,
    TupleProvenanceGame,
    sample_topological_order,
)
from .base import BaseGame, FunctionGame, Game, as_game, walk_masks
from .engine import game_value_function
from .estimators import (
    EstimatorState,
    PermutationEstimate,
    all_coalitions,
    exact_enumeration,
    kernel_wls_estimator,
    permutation_estimator,
    shapley_kernel_weight,
    solve_kernel_wls,
    stratified_estimator,
)
from .plan import (
    CoalitionPlan,
    kernel_plan,
    mean_walks_reduce,
    permutation_plan,
    shared_plan,
)

__all__ = [
    "Game",
    "BaseGame",
    "FunctionGame",
    "as_game",
    "walk_masks",
    "game_value_function",
    "CoalitionPlan",
    "permutation_plan",
    "kernel_plan",
    "shared_plan",
    "mean_walks_reduce",
    "EstimatorState",
    "solve_kernel_wls",
    "PermutationEstimate",
    "all_coalitions",
    "exact_enumeration",
    "permutation_estimator",
    "kernel_wls_estimator",
    "stratified_estimator",
    "shapley_kernel_weight",
    "FeatureMaskingGame",
    "DataValueGame",
    "TupleProvenanceGame",
    "TopologicalGame",
    "InterventionalGame",
    "GradientGame",
    "sample_topological_order",
]
