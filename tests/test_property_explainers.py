"""Property-based tests across explainers on randomized models/games.

These are the invariants that must hold for *every* input, not just the
fixtures: TreeSHAP equals brute force on random trees, Kernel SHAP with
full enumeration equals exact on random games, the circuit pipeline
agrees with its tree on random data, and data valuations respect the
efficiency identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_classification
from repro.logic import binarize_matrix, compile_tree, conditional_expectation
from repro.models import DecisionTreeClassifier, DecisionTreeRegressor
from repro.shapley import (
    TreeShapExplainer,
    exact_shapley,
    kernel_shap,
)


@given(seed=st.integers(0, 10_000), depth=st.integers(1, 6),
       n_features=st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_treeshap_equals_bruteforce_on_random_trees(seed, depth, n_features):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (150, n_features))
    y = rng.normal(0, 1, 150)
    tree = DecisionTreeRegressor(max_depth=depth, min_samples_leaf=5)
    tree.fit(X, y)
    explainer = TreeShapExplainer(tree)
    rows = X[rng.integers(0, 150, 2)]
    for x, att in zip(rows, explainer.explain_batch(rows)):
        reference = exact_shapley(explainer.value_function(x), n_features)
        assert np.allclose(att.values, reference, atol=1e-9)
        assert np.array_equal(explainer.explain(x).values, att.values)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
@settings(max_examples=20, deadline=None)
def test_kernel_shap_full_enumeration_is_exact(seed, n):
    rng = np.random.default_rng(seed)
    table = rng.normal(0, 1, 2 ** n)

    def v(masks):
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        return table[masks @ (1 << np.arange(n))]

    phi, base = kernel_shap(v, n, n_samples=2 ** n)
    reference = exact_shapley(v, n)
    assert np.allclose(phi, reference, atol=1e-7)
    assert base == pytest.approx(table[0])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_circuit_always_agrees_with_tree(seed):
    data = make_classification(200, n_features=5, n_informative=3, seed=seed)
    Xb, __ = binarize_matrix(data.X)
    tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(Xb, data.y)
    try:
        circuit = compile_tree(tree.tree_, 5, positive_class=1)
    except ValueError:
        return  # tree never predicts the positive class: nothing to check
    rng = np.random.default_rng(seed)
    assignments = (rng.random((50, 5)) > 0.5).astype(float)
    for a in assignments:
        assert circuit.evaluate(a.astype(bool)) == (
            tree.predict(a[None, :])[0] == 1
        )
    # conditional expectation at the full mask is the indicator
    x = assignments[0]
    value = conditional_expectation(
        circuit, x.astype(bool), np.ones(5, dtype=bool), np.full(5, 0.5)
    )
    assert value == float(tree.predict(x[None, :])[0] == 1)


@given(seed=st.integers(0, 10_000), n_perm=st.sampled_from([8, 24]))
@settings(max_examples=10, deadline=None)
def test_tmc_shapley_efficiency_identity(seed, n_perm):
    """Per-permutation marginals telescope, so with NO truncation the
    estimator satisfies Σφ = U(D) − U(∅) exactly for any seed."""
    from repro.datavalue import UtilityFunction, tmc_shapley
    from repro.models import KNeighborsClassifier

    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (24, 2))
    y = (X[:, 0] + 0.3 * rng.normal(0, 1, 24) > 0).astype(int)
    if len(np.unique(y)) < 2:
        return

    class TinyKNN(KNeighborsClassifier):
        def fit(self, Xf, yf):
            self.n_neighbors = min(3, np.atleast_2d(Xf).shape[0])
            return super().fit(Xf, yf)

    utility = UtilityFunction(
        lambda: TinyKNN(3), X[:16], y[:16], X[16:], y[16:]
    )
    values = tmc_shapley(
        utility, n_permutations=n_perm,
        truncation_tolerance=0.0,  # disable truncation
        seed=seed,
    )
    gap = values.values.sum() - (utility.full_score() - utility.empty_score)
    assert abs(gap) < 1e-9


@given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
@settings(max_examples=15, deadline=None)
def test_knn_shapley_efficiency_identity(seed, k):
    from repro.datavalue import knn_shapley

    rng = np.random.default_rng(seed)
    X_train = rng.normal(0, 1, (20, 2))
    y_train = rng.integers(0, 2, 20)
    X_val = rng.normal(0, 1, (6, 2))
    y_val = rng.integers(0, 2, 6)
    att = knn_shapley(X_train, y_train, X_val, y_val, k=k)
    # Σφ equals mean top-k match rate over validation points (U(∅) = 0).
    expected = 0.0
    for xv, yv in zip(X_val, y_val):
        d = np.linalg.norm(X_train - xv, axis=1)
        nearest = np.argsort(d, kind="stable")[:k]
        expected += np.mean(y_train[nearest] == yv)
    expected /= len(y_val)
    assert att.values.sum() == pytest.approx(expected, abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_lime_ridge_reduces_to_ols_limit(seed):
    """With alpha→0 and uniform weights, LIME's core regression is OLS."""
    from repro.surrogate import weighted_ridge

    rng = np.random.default_rng(seed)
    Z = rng.normal(0, 1, (60, 3))
    beta = rng.normal(0, 2, 3)
    y = Z @ beta + 1.5
    coef, intercept = weighted_ridge(Z, y, np.ones(60), alpha=1e-10)
    assert np.allclose(coef, beta, atol=1e-5)
    assert intercept == pytest.approx(1.5, abs=1e-5)
