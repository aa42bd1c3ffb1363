"""Vectorized tree prediction vs the per-row list-walk oracle.

The tree models descend level-synchronously through a node table, and
the ensembles stack all their trees into one table. These tests pin
that fast path bit for bit to :mod:`tests.oracles.tree_walk` — the
per-row ``while`` loop the models used before — over random fitted
trees and ensembles (depth 0–8, single-leaf trees, multi-class forests
whose bootstrap draws miss a class) and over adversarial inputs: values
exactly on split thresholds, NaN (routes right) and ±inf. Persist and
io JSON round trips must predict the same bits, and every tree model
enforces the fitted input width with a typed error.

Both TreeSHAP explainers run one kernel over a leaf-path table. They
are held to the per-row recursions in the same oracle module at 1e-12
(the kernel sums in another order), over the same random models and
adversarial rows; ``explain(x)`` must equal its row of ``explain_batch``
bit for bit, and rows must not change bits across backends, batch splits
or kernel chunking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import dump_model, load_model
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
)
from repro.persist import dumps, loads, to_envelope
from repro.robust.errors import InputValidationError
from repro.shapley import (InterventionalTreeShapExplainer, TreeShapExplainer,
                           tree_expected_value)
from repro.shapley import tree as tree_module
from repro.shapley.tree import _decompose

from tests.oracles.tree_walk import (
    interventional_explain,
    loop_path_table,
    tree_shap_explain,
    walk_apply,
    walk_forest_proba,
    walk_gbm_raw,
    walk_gbm_staged,
    walk_predict_value,
)

KINDS = ("tree_clf", "tree_reg", "gbm_clf", "gbm_reg", "forest")


def _fit(kind: str, X: np.ndarray, y: np.ndarray, depth: int, seed: int):
    if kind == "tree_clf":
        return DecisionTreeClassifier(max_depth=depth, seed=seed).fit(X, y)
    if kind == "tree_reg":
        return DecisionTreeRegressor(max_depth=depth, seed=seed).fit(
            X, y + X[:, 0])
    if kind == "gbm_clf":
        return GradientBoostingClassifier(
            n_estimators=4, max_depth=depth, seed=seed).fit(X, y % 2)
    if kind == "gbm_reg":
        return GradientBoostingRegressor(
            n_estimators=4, max_depth=depth, subsample=0.8, seed=seed
        ).fit(X, y + X[:, -1])
    return RandomForestClassifier(
        n_estimators=4, max_depth=depth, seed=seed).fit(X, y)


def _trees(model) -> list:
    return [model] if hasattr(model, "tree_") else list(model.estimators_)


def _queries(model, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Training rows, rows placed exactly on split thresholds, and rows
    with NaN / ±inf entries."""
    Q = [X]
    on_threshold = X.copy()
    for tree in _trees(model):
        structure = tree.tree_
        for node in np.flatnonzero(structure.feature >= 0):
            row = rng.integers(0, X.shape[0])
            on_threshold[row, structure.feature[node]] = structure.threshold[node]
    Q.append(on_threshold)
    special = X.copy()
    mask = rng.random(X.shape) < 0.3
    special[mask] = rng.choice([np.nan, np.inf, -np.inf], size=int(mask.sum()))
    Q.append(special)
    return np.vstack(Q)


def _outputs(model, Q: np.ndarray) -> list[np.ndarray]:
    outputs = [model.predict(Q)]
    if hasattr(model, "predict_proba"):
        outputs.append(model.predict_proba(Q))
    if hasattr(model, "staged_raw_predict"):
        outputs.extend(model.staged_raw_predict(Q))
    return outputs


def _assert_matches_oracle(model, Q: np.ndarray) -> None:
    for tree in _trees(model):
        assert np.array_equal(tree.tree_.apply(Q), walk_apply(tree.tree_, Q))
    if isinstance(model, DecisionTreeClassifier):
        assert np.array_equal(model.predict_proba(Q),
                              walk_predict_value(model.tree_, Q))
    elif isinstance(model, DecisionTreeRegressor):
        assert np.array_equal(model.predict(Q),
                              walk_predict_value(model.tree_, Q).ravel())
    elif isinstance(model, RandomForestClassifier):
        assert np.array_equal(model.predict_proba(Q), walk_forest_proba(model, Q))
    else:
        raw = (model.decision_function(Q) if hasattr(model, "decision_function")
               else model.predict(Q))
        assert np.array_equal(raw, walk_gbm_raw(model, Q))
        staged = list(model.staged_raw_predict(Q))
        oracle = walk_gbm_staged(model, Q)
        assert len(staged) == len(oracle)
        for fast, slow in zip(staged, oracle):
            assert np.array_equal(fast, slow)
    if not hasattr(model, "tree_"):
        leaves = np.column_stack([walk_apply(t.tree_, Q) for t in model.estimators_])
        assert np.array_equal(model.apply(Q), leaves)


@given(
    kind=st.sampled_from(KINDS),
    depth=st.integers(0, 8),
    n_rows=st.integers(6, 40),
    n_features=st.integers(1, 5),
    n_classes=st.integers(2, 3),
    integer_features=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_fast_paths_match_list_walk_oracle_bitwise(
    kind, depth, n_rows, n_features, n_classes, integer_features, seed
):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    if integer_features:
        X = np.round(X * 2)  # many ties: splits between repeated values
    y = rng.integers(0, n_classes, n_rows)
    y[:2] = [0, 1]  # both binary classes present for the boosting models
    model = _fit(kind, X, y, depth, seed)
    Q = _queries(model, X, rng)
    _assert_matches_oracle(model, Q)

    # Persist-envelope and io JSON copies predict the same bits.
    expected = _outputs(model, Q)
    for copy in (loads(dumps(to_envelope(model))), load_model(dump_model(model))):
        for fast, original in zip(_outputs(copy, Q), expected):
            assert np.array_equal(fast, original)


@pytest.mark.parametrize("kind", KINDS)
def test_treeshap_precompute_matches_per_node_loops(kind):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    model = _fit(kind, X, rng.integers(0, 2, 80), 4, 0)
    pre = TreeShapExplainer(model).precompute()
    expected = [path for tree, weight, class_index in _decompose(model)
                for path in loop_path_table(tree, weight, class_index)]
    assert pre.value.tolist() == [value for value, __ in expected]
    for p, (__, zeros) in enumerate(expected):
        real = pre.feature[p] < 4
        assert dict(zip(pre.feature[p][real].tolist(),
                        pre.zero[p][real].tolist())) == zeros
        assert np.all(pre.zero[p][~real] == 1.0)  # null elements
    assert abs(pre.expected_value - sum(
        weight * tree_expected_value(tree, X[0], np.zeros(4, bool), ci)
        for tree, weight, ci in _decompose(model)
    ) - getattr(model, "init_raw_", 0.0)) <= 1e-12


def _assert_treeshap_matches_oracles(model, Q, background):
    path = TreeShapExplainer(model)
    interventional = InterventionalTreeShapExplainer(model, background)
    for explainer, oracle in (
        (path, tree_shap_explain),
        (interventional,
         lambda m, q: interventional_explain(m, q, background)),
    ):
        batch = explainer.explain_batch(Q)
        for q, att in zip(Q, batch):
            phi, base = oracle(model, q)
            assert np.abs(att.values - phi).max(initial=0.0) <= 1e-12
            assert abs(att.base_value - base) <= 1e-12
            single = explainer.explain(q)
            assert np.array_equal(single.values, att.values)
            assert single.base_value == att.base_value
            assert single.prediction == att.prediction


@given(
    kind=st.sampled_from(KINDS),
    depth=st.integers(0, 8),
    n_rows=st.integers(6, 40),
    n_features=st.integers(1, 5),
    integer_features=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_treeshap_matches_scalar_oracles(
    kind, depth, n_rows, n_features, integer_features, seed
):
    # Both TreeSHAP explainers against the per-row recursions, on
    # training, on-threshold, NaN and ±inf rows; one feature (or ties)
    # forces repeated features on a path.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    if integer_features:
        X = np.round(X * 2)
    y = rng.integers(0, 2, n_rows)
    y[:2] = [0, 1]
    model = _fit(kind, X, y, depth, seed)
    Q = _queries(model, X, rng)
    Q = Q[rng.choice(Q.shape[0], 8, replace=False)]
    _assert_treeshap_matches_oracles(model, Q, X[:5])


def test_treeshap_single_leaf_and_repeated_feature():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 2))
    Q = np.array([[np.nan, 0.0], [np.inf, -np.inf], [0.3, 0.1]])
    stump = DecisionTreeRegressor().fit(X, np.full(40, 2.5))
    att = TreeShapExplainer(stump).explain_batch(Q)
    assert all(np.array_equal(a.values, [0.0, 0.0]) for a in att)
    assert all(a.base_value == 2.5 for a in att)
    _assert_treeshap_matches_oracles(stump, Q, X[:4])
    # One feature, split again and again down every path: one element.
    X1 = X[:, :1]
    deep = DecisionTreeRegressor(max_depth=6).fit(X1, np.sin(3 * X1[:, 0]))
    assert TreeShapExplainer(deep).precompute().zero.shape[1] == 2
    Q = np.vstack([Q[:, :1], X1[:5], deep.tree_.threshold[:3, None]])
    _assert_treeshap_matches_oracles(deep, Q, X1[:4])


@pytest.mark.parametrize("kind", ["gbm_clf", "forest"])
def test_treeshap_rows_bitwise_across_backends_and_splits(kind, monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    model = _fit(kind, X, rng.integers(0, 2, 60), 4, 0)
    Q = X[:12].copy()
    Q[3, 1] = np.nan
    Q[5, 2] = np.inf
    for explainer in (TreeShapExplainer(model),
                      InterventionalTreeShapExplainer(model, X[20:30])):
        serial = np.stack([a.values for a in explainer.explain_batch(Q)])
        for backend in ("thread", "process"):
            rerun = explainer.explain_batch(Q, backend=backend, n_procs=2)
            assert np.array_equal(serial, np.stack([a.values for a in rerun]))
        split = explainer.explain_batch(Q[:5]) + explainer.explain_batch(Q[5:])
        assert np.array_equal(serial, np.stack([a.values for a in split]))
        # Kernel chunks of one row each: the same bits again.
        monkeypatch.setattr(tree_module, "CHUNK_ELEMENTS", 1)
        chunked = explainer.explain_batch(Q)
        monkeypatch.undo()
        assert np.array_equal(serial, np.stack([a.values for a in chunked]))


def test_structure_is_read_only_and_value_freezes_after_newton():
    X = np.random.default_rng(5).normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
    with pytest.raises(ValueError):
        tree.tree_.threshold[0] = 0.0
    tree.tree_.value[0, 0] = 1.0  # still writable: the Newton step's window
    tree.tree_.tolist()
    with pytest.raises(ValueError):
        tree.tree_.value[0, 0] = 2.0
    gbm = GradientBoostingClassifier(n_estimators=3, max_depth=2).fit(X, y)
    for stage in gbm.estimators_:
        assert not stage.tree_.value.flags.writeable


def test_single_leaf_trees_predict_their_root():
    X = np.random.default_rng(0).normal(size=(20, 3))
    tree = DecisionTreeRegressor().fit(X, np.full(20, 1.5))
    assert tree.tree_.n_nodes == 1 and tree.tree_.n_levels == 0
    Q = np.array([[np.nan, np.inf, -np.inf], [0.0, 0.0, 0.0]])
    assert np.array_equal(tree.predict(Q), [1.5, 1.5])
    gbm = GradientBoostingClassifier(n_estimators=3, max_depth=0).fit(
        X, np.arange(20) % 2)
    _assert_matches_oracle(gbm, Q)


def test_forest_aligns_trees_missing_a_class():
    # A tree whose training draw missed a class carries fewer value
    # columns; the stacked table must place them by label. Fit resamples
    # such draws away, so swap one such tree in by hand: assigning
    # ``estimators_`` rebuilds the table, as the loaders do.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    y = np.array([0, 1, 2] * 10)
    forest = RandomForestClassifier(n_estimators=4, max_depth=3, seed=1).fit(X, y)
    keep = y != 1
    partial = DecisionTreeClassifier(max_depth=3).fit(X[keep], y[keep])
    forest.estimators_ = forest.estimators_[:2] + [partial] + forest.estimators_[3:]
    assert list(partial.classes_) == [0, 2]
    _assert_matches_oracle(forest, _queries(forest, X, rng))
    copy = loads(dumps(to_envelope(forest)))
    assert np.array_equal(copy.predict_proba(X), forest.predict_proba(X))


def test_nan_routes_right_at_every_split():
    X = np.linspace(-1, 1, 40)[:, None]
    tree = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 0] ** 2)
    node = 0
    structure = tree.tree_
    while structure.feature[node] >= 0:
        node = structure.children_right[node]
    assert structure.apply(np.array([[np.nan]]))[0] == node


WIDTH_MODELS = {
    "tree_clf": lambda: DecisionTreeClassifier(max_depth=3),
    "tree_reg": lambda: DecisionTreeRegressor(max_depth=3),
    "gbm_clf": lambda: GradientBoostingClassifier(n_estimators=3, max_depth=2),
    "gbm_reg": lambda: GradientBoostingRegressor(n_estimators=3, max_depth=2),
    "forest": lambda: RandomForestClassifier(n_estimators=3, max_depth=2),
}


def _predict_calls(model):
    names = ("predict", "predict_proba", "decision_function",
             "staged_raw_predict", "apply")
    return [getattr(model, name) for name in names if hasattr(model, name)]


@pytest.mark.parametrize("name", sorted(WIDTH_MODELS))
@pytest.mark.parametrize("width", [2, 9])
def test_wrong_width_raises_input_validation_error(name, width):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = WIDTH_MODELS[name]().fit(X, y)
    model.predict(X)  # the fitted width is accepted
    for call in _predict_calls(model):
        with pytest.raises(InputValidationError, match="4"):
            call(np.zeros((3, width)))


@pytest.mark.parametrize("name", sorted(WIDTH_MODELS))
def test_empty_batch_raises_input_validation_error(name):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 4))
    model = WIDTH_MODELS[name]().fit(X, (X[:, 0] > 0).astype(int))
    for call in _predict_calls(model):
        with pytest.raises(InputValidationError):
            call(np.zeros((0, 4)))


def test_width_survives_persist_and_io_round_trips():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 4))
    y = (X[:, 2] > 0).astype(int)
    for make in WIDTH_MODELS.values():
        model = make().fit(X, y)
        for copy in (loads(dumps(to_envelope(model))),
                     load_model(dump_model(model))):
            with pytest.raises(InputValidationError):
                copy.predict(np.zeros((2, 9)))
