"""Pre-games walk loops: the oracles for the games-layer callers.

Data valuation, tuple Shapley, repair responsibility and the two causal
explainers run their permutation walks through :mod:`repro.games`
(shared estimator, coalition cache, budgets, telemetry). Before that
each kept its own loop. This module keeps those loops, so the parity
tests can pin the games path to them bit for bit at equal seeds:

* :func:`legacy_tmc_shapley`, :func:`legacy_beta_shapley`,
  :func:`legacy_distributional_shapley`, :func:`legacy_gradient_shapley`
  — the data-valuation loops;
* :func:`database_value_fn` and :func:`legacy_shapley_of_tuples` — the
  uncached per-coalition relation rebuild;
* :func:`legacy_asymmetric_explain` and :func:`legacy_causal_explain` —
  the causal walks, including the direct/indirect ledger.
"""

from __future__ import annotations

import numpy as np

from repro.causal.asymmetric import sample_topological_permutation
from repro.causal.values import interventional_value_function
from repro.core.explanation import DataAttribution, FeatureAttribution
from repro.datavalue.distributional import beta_weights
from repro.models.metrics import accuracy
from repro.shapley.exact import exact_shapley
from repro.shapley.sampling import permutation_shapley


# -- data valuation ------------------------------------------------------------


def legacy_tmc_shapley(utility, n_permutations=200, truncation_tolerance=0.01,
                       seed=0) -> DataAttribution:
    """The pre-games truncated Monte-Carlo loop."""
    n = utility.n_points
    rng = np.random.default_rng(seed)
    full_score = utility.full_score()
    marginal_sums = np.zeros(n)
    marginal_counts = np.zeros(n)
    truncated_at: list[int] = []
    for __ in range(n_permutations):
        perm = rng.permutation(n)
        previous = utility.empty_score
        prefix: list[int] = []
        scanned = n
        for position, point in enumerate(perm):
            prefix.append(int(point))
            current = utility(np.asarray(prefix))
            marginal_sums[point] += current - previous
            marginal_counts[point] += 1
            previous = current
            if abs(full_score - current) < truncation_tolerance:
                scanned = position + 1
                break
        # Truncation assigns zero marginal to the unscanned tail.
        marginal_counts[perm[scanned:]] += 1
        truncated_at.append(scanned)
    values = marginal_sums / np.maximum(marginal_counts, 1)
    return DataAttribution(
        values=values,
        method="tmc_shapley",
        meta={
            "full_score": full_score,
            "n_permutations": n_permutations,
            "mean_truncation_position": float(np.mean(truncated_at)),
            "n_utility_evaluations": utility.n_evaluations,
        },
    )


def legacy_beta_shapley(utility, alpha=16.0, beta=1.0, n_permutations=200,
                        seed=0) -> DataAttribution:
    """The pre-games position-weighted loop."""
    n = utility.n_points
    rng = np.random.default_rng(seed)
    weights = beta_weights(n, alpha, beta)
    weighted_sums = np.zeros(n)
    weight_totals = np.zeros(n)
    for __ in range(n_permutations):
        perm = rng.permutation(n)
        previous = utility.empty_score
        prefix: list[int] = []
        for position, point in enumerate(perm):
            prefix.append(int(point))
            current = utility(np.asarray(prefix))
            w = weights[position]
            weighted_sums[point] += w * (current - previous)
            weight_totals[point] += w
            previous = current
    values = weighted_sums / np.maximum(weight_totals, 1e-12)
    return DataAttribution(
        values=values,
        method=f"beta_shapley({alpha:g},{beta:g})",
        meta={"alpha": alpha, "beta": beta, "n_permutations": n_permutations},
    )


def legacy_distributional_shapley(point_index, utility, n_draws=100,
                                  max_cardinality=None, seed=0
                                  ) -> tuple[float, float]:
    """The pre-games draw loop."""
    n = utility.n_points
    if not 0 <= point_index < n:
        raise IndexError(point_index)
    rng = np.random.default_rng(seed)
    others = np.array([i for i in range(n) if i != point_index])
    max_cardinality = max_cardinality or others.size
    contributions = np.zeros(n_draws)
    for t in range(n_draws):
        m = int(rng.integers(0, max_cardinality + 1))
        subset = rng.choice(others, size=m, replace=False)
        with_point = np.append(subset, point_index)
        contributions[t] = utility(with_point) - utility(subset)
    value = float(contributions.mean())
    stderr = (float(contributions.std(ddof=1) / np.sqrt(n_draws))
              if n_draws > 1 else 0.0)
    return value, stderr


def legacy_gradient_shapley(model_factory, X_train, y_train, X_val, y_val,
                            n_permutations=100, learning_rate=0.05,
                            metric=accuracy, seed=0) -> DataAttribution:
    """The pre-games one-epoch SGD loop."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train).ravel()
    n = X_train.shape[0]
    rng = np.random.default_rng(seed)
    classes = np.unique(y_train)
    if classes.size != 2:
        raise ValueError("gradient_shapley supports binary classification")

    # A throwaway fit fixes the parameter dimensionality and class order.
    template = model_factory()
    template.fit(X_train[:10] if n >= 10 else X_train,
                 y_train[:10] if n >= 10 else y_train)
    n_params = template.params.shape[0]

    marginal_sums = np.zeros(n)
    for __ in range(n_permutations):
        perm = rng.permutation(n)
        # Start each pass from zero parameters without an initial fit.
        model = model_factory()
        model.classes_ = classes
        model.set_params_vector(np.zeros(n_params))
        previous = float(metric(y_val, model.predict(X_val)))
        for point in perm:
            g = model.grad(X_train[point : point + 1],
                           y_train[point : point + 1])[0]
            model.set_params_vector(model.params - learning_rate * g)
            current = float(metric(y_val, model.predict(X_val)))
            marginal_sums[point] += current - previous
            previous = current
    return DataAttribution(
        values=marginal_sums / n_permutations,
        method="gradient_shapley",
        meta={"n_permutations": n_permutations, "learning_rate": learning_rate},
    )


# -- tuple Shapley -------------------------------------------------------------


def database_value_fn(relation, endogenous, query):
    """Uncached batched ``v(masks)`` rebuilding the relation per coalition."""
    endogenous_set = set(endogenous)
    exogenous = [i for i in range(len(relation)) if i not in endogenous_set]

    def v(masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        out = np.zeros(masks.shape[0])
        for row, mask in enumerate(masks):
            keep = sorted(
                exogenous + [endogenous[j] for j in range(len(endogenous))
                             if mask[j]]
            )
            out[row] = float(query(relation.subset(keep)))
        return out

    return v


def legacy_shapley_of_tuples(relation, query, endogenous=None, method="auto",
                             n_permutations=200, seed=0) -> dict[int, float]:
    """Tuple Shapley over :func:`database_value_fn` (no games adapter)."""
    if endogenous is None:
        endogenous = list(range(len(relation)))
    n = len(endogenous)
    if method == "auto":
        method = "exact" if n <= 16 else "sampling"
    v = database_value_fn(relation, endogenous, query)
    if method == "exact":
        phi = exact_shapley(v, n)
    else:
        phi, __ = permutation_shapley(v, n, n_permutations=n_permutations,
                                      seed=seed)
    return {endogenous[j]: float(phi[j]) for j in range(n)}


# -- causal explainers ---------------------------------------------------------


def legacy_asymmetric_explain(explainer, x, value_fn=None
                              ) -> FeatureAttribution:
    """The pre-games ASV loop over an ``AsymmetricShapleyExplainer``."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    rng = np.random.default_rng(explainer.seed)
    if value_fn is None:
        value_fn = interventional_value_function(
            explainer.scm, explainer.predict_fn, explainer.feature_order, x,
            n_samples=explainer.n_samples, seed=explainer.seed,
        )
    phi = np.zeros(n)
    for __ in range(explainer.n_permutations):
        perm = sample_topological_permutation(
            explainer.scm, explainer.feature_order, rng
        )
        masks = np.zeros((n + 1, n), dtype=bool)
        for pos, player in enumerate(perm):
            masks[pos + 1] = masks[pos]
            masks[pos + 1, player] = True
        values = np.asarray(value_fn(masks), dtype=float)
        phi[perm] += values[1:] - values[:-1]
    phi /= explainer.n_permutations
    base = float(value_fn(np.zeros((1, n), dtype=bool))[0])
    return FeatureAttribution(
        values=phi,
        feature_names=explainer.feature_order,
        base_value=base,
        prediction=float(explainer.predict_fn(x[None, :])[0]),
        method="asymmetric_shapley",
        meta={"n_permutations": explainer.n_permutations},
    )


def legacy_causal_explain(explainer, x) -> FeatureAttribution:
    """The pre-games causal Shapley loop over a ``CausalShapleyExplainer``.

    Two SCM expectations per step under one global seed counter; the
    direct part plugs ``x_i`` into the model under the old intervention,
    the indirect part is the rest of the step.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]

    def expectation(interventions, plug_in, seed):
        values = explainer.scm.sample(explainer.n_samples, seed=seed,
                                      interventions=interventions)
        X = np.column_stack([values[name]
                             for name in explainer.feature_order])
        for j, value in plug_in.items():
            X[:, j] = value
        return float(np.mean(explainer.predict_fn(X)))

    seed = explainer.seed
    rng = np.random.default_rng(seed)
    phi_direct = np.zeros(n)
    phi_indirect = np.zeros(n)
    counter = 0
    for __ in range(explainer.n_permutations):
        perm = rng.permutation(n)
        coalition: dict[str, float] = {}
        plugged: dict[int, float] = {}
        v_prev = expectation(coalition, plugged, seed + counter)
        counter += 1
        for player in perm:
            name = explainer.feature_order[player]
            v_direct = expectation(
                coalition, {**plugged, player: float(x[player])},
                seed + counter,
            )
            counter += 1
            coalition[name] = float(x[player])
            plugged[player] = float(x[player])
            v_full = expectation(coalition, plugged, seed + counter)
            counter += 1
            phi_direct[player] += v_direct - v_prev
            phi_indirect[player] += v_full - v_direct
            v_prev = v_full
    phi_direct /= explainer.n_permutations
    phi_indirect /= explainer.n_permutations
    return FeatureAttribution(
        values=phi_direct + phi_indirect,
        feature_names=explainer.feature_order,
        base_value=expectation({}, {}, seed + counter),
        prediction=float(explainer.predict_fn(x[None, :])[0]),
        method="causal_shapley",
        meta={"direct": phi_direct, "indirect": phi_indirect},
    )
