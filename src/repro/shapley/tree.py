"""TreeSHAP: polynomial-time exact Shapley values for tree ensembles.

Implements the path-dependent algorithm of Lundberg et al. (2020, "From
local explanations to global understanding with explainable AI for
trees"): Shapley values of the *tree conditional expectation* game

    v(S) = EXPVALUE(x, S) — follow the tree; at a split on a feature
    outside S, average both children weighted by training cover,

computed for all features simultaneously from the EXTEND/UNWIND summary
of feature-subset proportions along each root-to-leaf path.
:func:`tree_expected_value` is the direct (exponential when combined
with subset enumeration) oracle of the same game; the test suite checks
the fast kernel against exact enumeration through it.

Supported models: both CART trees, :class:`RandomForestClassifier`
(explains the averaged class-1 probability) and the gradient boosting
models (explains the raw additive score — log-odds for the classifier).

One kernel over a leaf-path table, GPUTreeShap's formulation (Mitchell
et al., arXiv:2010.13972). A path's contribution depends on the
instance only through its one fractions, so :class:`TreePrecompute`
flattens the model once — cached per model, inherited read-only by
process-backend shards via fork — into one row per root-to-leaf path of
every component tree: the leaf value times the ensemble weight and the
path's distinct features as K elements. A feature that repeats on a
path is one element: its zero fraction is the product of its cover
fractions, and its one fraction is the AND of its split tests
``x[f] <= threshold`` (so NaN routes right, exactly as in ``predict``).
Element 0 and the padding of shorter paths are null elements (zero =
one = 1), which change no Shapley value. Per batch, one comparison
against every split threshold gives all one fractions; EXTEND and
UNWOUND-SUM run as O(K) numpy steps over ``(rows, paths, K)`` arrays,
and the per-element terms are scattered into features with
``np.add.at`` in path order. Nothing reduces over the row axis and no
BLAS call is made, so each row's bits are the same for any batch size,
batch split or backend, and ``explain(x)`` is a batch of one. Rows are
chunked so that memory stays bounded by rows × paths × K floats.
Interventional TreeSHAP (:mod:`repro.shapley.tree_interventional`)
runs on the same table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..core.base import AttributionExplainer
from ..core.explanation import FeatureAttribution
from ..models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from ..models.forest import RandomForestClassifier
from ..models.tree import (LEAF, DecisionTreeClassifier, DecisionTreeRegressor,
                           TreeStructure)

__all__ = [
    "tree_expected_value",
    "TreePrecompute",
    "TreeShapExplainer",
]

# Elements per kernel chunk (rows × paths × K, times the background size
# for interventional TreeSHAP): 2 MB per float64 temporary.
CHUNK_ELEMENTS = 1 << 18


def _leaf_scalar(row: list, class_index: int | None) -> float:
    """The explained scalar of one leaf's value row (a ``tolist`` row)."""
    return row[0 if class_index is None else class_index]


def tree_expected_value(
    tree: TreeStructure,
    x: np.ndarray,
    mask: np.ndarray,
    class_index: int | None = None,
) -> float:
    """EXPVALUE: conditional expectation of the tree with features S fixed.

    ``mask[j]`` true means feature ``j`` is *present* (follows ``x``);
    absent features are integrated out by cover-weighted averaging.
    """
    x = np.asarray(x, dtype=float).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    nodes = tree.tolist()

    def recurse(node: int) -> float:
        feature = nodes.feature[node]
        if feature == LEAF:
            return _leaf_scalar(nodes.value[node], class_index)
        left, right = nodes.left[node], nodes.right[node]
        if mask[feature]:
            child = left if x[feature] <= nodes.threshold[node] else right
            return recurse(child)
        w_left = nodes.cover[left]
        w_right = nodes.cover[right]
        total = w_left + w_right
        return (w_left * recurse(left) + w_right * recurse(right)) / total

    return recurse(0)


def _row_chunks(n_rows: int, per_row: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` row ranges holding at most :data:`CHUNK_ELEMENTS`
    kernel elements each (one row at least)."""
    step = max(1, CHUNK_ELEMENTS // max(per_row, 1))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


# Per-model precompute store: one TreePrecompute per live model object,
# shared by every explainer built on it (and by forked process-backend
# workers, which inherit it copy-on-write). Weak keys keep the store
# from pinning models in memory.
_PRECOMPUTE_STORE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class TreePrecompute:
    """One tree model's leaf-path table, built once per model.

    Path ``p`` carries ``value[p]``, its leaf's explained scalar times
    the ensemble weight, and K elements ``k``: ``feature[p, k]``,
    ``zero[p, k]`` (the product of that feature's cover fractions on the
    path) and ``tests[p, k]``, its split tests as columns of
    :meth:`one_fractions`' pass matrix — split ``s`` taken left is
    column ``s``, taken right column ``n_splits + s``, and the last
    column always passes (padding). Null elements hold feature
    ``n_features``, a column dropped after the scatter.
    ``split_feature``/``split_threshold`` list every internal node of
    every component tree. ``expected_value`` is Σ value × Π zero, plus
    the boosting intercept.
    """

    value: np.ndarray
    feature: np.ndarray
    zero: np.ndarray
    tests: np.ndarray
    split_feature: np.ndarray
    split_threshold: np.ndarray
    n_features: int
    expected_value: float

    def one_fractions(self, X: np.ndarray) -> np.ndarray:
        """``(rows, paths, K)``: whether each row passes every split
        test of each element — one comparison per (row, split)."""
        goes_left = X[:, self.split_feature] <= self.split_threshold
        passes = np.concatenate(
            [goes_left, ~goes_left, np.ones((X.shape[0], 1), dtype=bool)],
            axis=1,
        )
        return passes[:, self.tests].all(axis=-1)

    def scatter(self, terms: np.ndarray) -> np.ndarray:
        """Sum ``(rows, paths, K)`` element terms into ``(rows,
        n_features)``, in path order and independently per row."""
        phi = np.zeros((terms.shape[0], self.n_features + 1))
        np.add.at(phi, (slice(None), self.feature.ravel()),
                  terms.reshape(terms.shape[0], -1))
        return phi[:, :-1]

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """Path-dependent Shapley values for every row of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.concatenate([
            self._path_dependent(X[lo:hi])
            for lo, hi in _row_chunks(X.shape[0], self.zero.size)
        ])

    def _path_dependent(self, X: np.ndarray) -> np.ndarray:
        one = self.one_fractions(X)
        zero = self.zero
        n_paths, K = zero.shape
        # EXTEND every element in turn: w[j] is the weight of the
        # coalitions of size j among the elements extended so far.
        w = np.ones((1, X.shape[0], n_paths))
        for d in range(1, K):
            scale = np.arange(d + 1)[:, None, None] / (d + 1)
            grown = np.zeros((d + 1,) + w.shape[1:])
            grown[:d] = zero[:, d] * w * scale[:0:-1]
            grown[1:] += one[:, :, d] * w * scale[1:]
            w = grown
        # UNWOUND-SUM of every element at once. An element whose one
        # fraction is 0 has a closed form; one of 1 unwinds through w.
        D = K - 1
        cold = np.zeros(w.shape[1:])
        for j in range(D):
            cold = cold + w[j] * ((D + 1) / (D - j))
        cold = cold[..., None] / zero
        hot = np.zeros(one.shape)
        carry = w[D][..., None]
        for j in range(D - 1, -1, -1):
            unwound = carry * ((D + 1) / (j + 1))
            hot = hot + unwound
            carry = w[j][..., None] - unwound * zero * ((D - j) / (D + 1))
        total = np.where(one, hot, cold)
        return self.scatter(self.value[:, None] * (one - zero) * total)


def _path_table(components, n_features: int, intercept: float
                ) -> TreePrecompute:
    """One walk of each component tree into a :class:`TreePrecompute`."""
    paths = []  # (weighted leaf value, [(feature, (zero, tests)), ...])
    split_feature: list[int] = []
    split_threshold: list[float] = []
    for tree, weight, class_index in components:
        nodes = tree.tolist()

        def walk(node: int, elements: dict) -> None:
            feature = nodes.feature[node]
            if feature == LEAF:
                value = _leaf_scalar(nodes.value[node], class_index)
                paths.append((weight * value, list(elements.items())))
                return
            split = len(split_feature)
            split_feature.append(feature)
            split_threshold.append(nodes.threshold[node])
            zero, tests = elements.get(feature, (1.0, ()))
            cover = nodes.cover[node]
            for child, side in ((nodes.left[node], 0), (nodes.right[node], 1)):
                walk(child, {**elements, feature: (
                    zero * nodes.cover[child] / cover,
                    tests + ((split, side),),
                )})

        walk(0, {})
    n_splits = len(split_feature)
    K = 1 + max(len(elements) for __, elements in paths)
    T = max([len(tests) for __, elements in paths
             for __f, (__z, tests) in elements], default=1)
    feature = np.full((len(paths), K), n_features, dtype=np.intp)
    zero = np.ones((len(paths), K))
    tests = np.full((len(paths), K, T), 2 * n_splits, dtype=np.intp)
    for p, (__, elements) in enumerate(paths):
        for k, (f, (z, split_tests)) in enumerate(elements, start=1):
            feature[p, k] = f
            zero[p, k] = z
            for t, (split, side) in enumerate(split_tests):
                tests[p, k, t] = split + side * n_splits
    value = np.array([v for v, __ in paths])
    return TreePrecompute(
        value=value,
        feature=feature,
        zero=zero,
        tests=tests,
        split_feature=np.array(split_feature, dtype=np.intp),
        split_threshold=np.array(split_threshold, dtype=float),
        n_features=n_features,
        expected_value=float(np.sum(value * np.prod(zero, axis=1)))
        + intercept,
    )


def tree_precompute(model) -> TreePrecompute:
    """The model's cached :class:`TreePrecompute`, built on first use."""
    try:
        cached = _PRECOMPUTE_STORE.get(model)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    pre = _path_table(_decompose(model), _n_features(model),
                      _intercept(model))
    try:
        _PRECOMPUTE_STORE[model] = pre
    except TypeError:
        pass
    return pre


def _n_features(model) -> int:
    fitted = model.estimators_[0] if hasattr(model, "estimators_") else model
    return fitted.n_features_


def _intercept(model) -> float:
    """The boosting models' initial raw score; 0 for trees and forests."""
    if isinstance(model, (GradientBoostingClassifier,
                          GradientBoostingRegressor)):
        return model.init_raw_
    return 0.0


def _decompose(model) -> list[tuple[TreeStructure, float, int | None]]:
    """Flatten a tree model into ``(structure, weight, class_index)`` terms.

    Per-tree Shapley values add (the game value functions add), so an
    ensemble's values are the weighted sum over these terms — the
    learning rate for boosting, ``1 / n_trees`` for forests.
    """
    if isinstance(model, (DecisionTreeRegressor,)):
        return [(model.tree_, 1.0, None)]
    if isinstance(model, DecisionTreeClassifier):
        return [(model.tree_, 1.0, int(np.argmax(model.classes_)))]
    if isinstance(model, RandomForestClassifier):
        weight = 1.0 / len(model.estimators_)
        out = []
        for tree in model.estimators_:
            # Positive class column within this tree's own class order.
            pos = int(np.searchsorted(tree.classes_, model.classes_[-1]))
            if tree.classes_[pos] != model.classes_[-1]:
                raise ValueError("tree missing the ensemble's positive class")
            out.append((tree.tree_, weight, pos))
        return out
    if isinstance(model, (GradientBoostingClassifier, GradientBoostingRegressor)):
        return [
            (stage.tree_, model.learning_rate, None)
            for stage in model.estimators_
        ]
    raise TypeError(
        f"TreeShapExplainer does not support {type(model).__name__}"
    )


def _model_output(model, X: np.ndarray) -> np.ndarray:
    """The explained output per row: the raw score for boosting, the
    prediction for regressors, the positive-class probability otherwise."""
    if isinstance(model, GradientBoostingClassifier):
        return np.asarray(model.decision_function(X), dtype=float)
    if isinstance(model, (DecisionTreeRegressor, GradientBoostingRegressor)):
        return np.asarray(model.predict(X), dtype=float)
    return np.asarray(model.predict_proba(X)[:, -1], dtype=float)


class TreeShapExplainer(AttributionExplainer):
    """Path-dependent TreeSHAP over any tree model in :mod:`repro.models`.

    For ensembles, per-tree Shapley values add (the game value functions
    add), so the table carries every component tree's paths with their
    ensemble weight — the learning rate for boosting, ``1 / n_trees``
    for forests. ``explain`` and ``explain_batch`` are the shared fused
    path of :class:`AttributionExplainer`, with the model's
    :class:`TreePrecompute` as its context. Trees route NaN, so rows are
    checked for width only (``accepts_nan``).
    """

    method_name = "tree_shap"
    accepts_nan = True

    def __init__(self, model) -> None:
        super().__init__(model)
        self._components = _decompose(model)
        self.n_features = _n_features(model)

    @property
    def expected_value(self) -> float:
        """Base value: the ensemble's cover-weighted expected output."""
        return self.precompute().expected_value

    def precompute(self) -> TreePrecompute:
        """This model's shared :class:`TreePrecompute`, built lazily."""
        return tree_precompute(self.model)

    def _amortized_context(self, X: np.ndarray,
                           feature_names: list[str] | None = None
                           ) -> TreePrecompute:
        return self.precompute()

    def _amortized_rows(self, X: np.ndarray, lo: int, hi: int,
                        pre: TreePrecompute,
                        feature_names: list[str] | None = None
                        ) -> list[FeatureAttribution]:
        """Rows ``[lo, hi)`` through the leaf-path kernel."""
        preds = _model_output(self.model, X[lo:hi])
        phi = pre.shap_values(X[lo:hi])
        names = feature_names or [f"x{i}" for i in range(X.shape[1])]
        n_trees = len(self._components)
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=pre.expected_value,
                prediction=float(preds[r]),
                method=self.method_name,
                meta={"n_trees": n_trees},
            )
            for r in range(hi - lo)
        ]

    def value_function(self, x: np.ndarray):
        """The ensemble's EXPVALUE game as a batched coalition function.

        Exponential when fed to :func:`repro.shapley.exact.exact_shapley`;
        exists for cross-validation of the fast algorithm.
        """
        x = np.asarray(x, dtype=float).ravel()
        intercept = _intercept(self.model)

        def v(masks: np.ndarray) -> np.ndarray:
            masks = np.atleast_2d(masks)
            out = np.zeros(masks.shape[0])
            for row, mask in enumerate(masks):
                out[row] = sum(
                    weight * tree_expected_value(tree, x, mask, ci)
                    for tree, weight, ci in self._components
                ) + intercept
            return out

        return v
