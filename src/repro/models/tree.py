"""CART decision trees (classifier and regressor) built from scratch.

A fitted tree is frozen into flat numpy arrays (``feature``,
``threshold``, ``children_left``, ``children_right``, ``n_node_samples``
of shape ``(n_nodes,)`` and ``value`` of shape ``(n_nodes, k)``) — the
representation TreeSHAP (:mod:`repro.shapley.tree`), the logic-based
explainers (:mod:`repro.logic`) and the tree-influence method
(:mod:`repro.influence.tree_influence`) all read. Recursive walkers read
the cached :meth:`TreeStructure.tolist` view instead, so their per-node
cost stays at plain list indexing.

Splits are of the form ``x[feature] <= threshold`` going left, so a NaN
feature value goes right. Prediction is a level-synchronous descent
(:class:`TreeTable`): every row advances one level per step with a
handful of vectorized gathers, and ensembles pad their trees into one
table so a single descent serves every tree at once. Numeric split
search is vectorized too: per candidate feature the node's rows are
sorted once and all prefix splits are scored together.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin, RegressorMixin

__all__ = ["TreeStructure", "TreeTable", "TreeEnsemble", "NodeLists",
           "DecisionTreeClassifier", "DecisionTreeRegressor", "LEAF"]

LEAF = -1


class NodeLists(NamedTuple):
    """Plain-list view of a tree for recursive Python walkers.

    Cached and shared by every walker of the tree: read it, never
    mutate it.
    """

    feature: list
    threshold: list
    left: list
    right: list
    value: list
    cover: list


class TreeTable:
    """One or more trees padded into a ``(n_trees, max_nodes)`` node table.

    Node ids are flat (``tree * max_nodes + node``). Leaves and padding
    slots are their own children, so :meth:`descend` runs a fixed
    number of levels (the deepest tree's depth) without masking: a row
    that reached its leaf early keeps stepping onto the same leaf. Each
    level is the same ``x[feature] <= threshold`` comparison the
    per-row walk makes, so NaN still routes right.

    With ``n_outputs`` set, the table also stacks leaf values for
    :meth:`leaf_values`: ``columns[t]`` places tree ``t``'s value
    columns into the table's ``n_outputs`` columns (the forest's class
    alignment); unset columns stay 0.
    """

    def __init__(self, trees: list["TreeStructure"],
                 columns: list[np.ndarray] | None = None,
                 n_outputs: int | None = None) -> None:
        n_trees = len(trees)
        width = max((tree.n_nodes for tree in trees), default=1)
        ids = np.arange(n_trees * width).reshape(n_trees, width)
        feature = np.zeros((n_trees, width), dtype=np.intp)
        threshold = np.zeros((n_trees, width))
        children = np.stack([ids, ids], axis=-1)
        value = np.zeros((n_trees, width, n_outputs or 0))
        for t, tree in enumerate(trees):
            n = tree.n_nodes
            split = tree.feature != LEAF
            feature[t, :n] = np.where(split, tree.feature, 0)
            threshold[t, :n] = tree.threshold
            children[t, :n, 0] = np.where(split, tree.children_left + ids[t, 0], ids[t, :n])
            children[t, :n, 1] = np.where(split, tree.children_right + ids[t, 0], ids[t, :n])
            if n_outputs:
                cols = slice(None) if columns is None else columns[t]
                value[t, :n][:, cols] = tree.value
        self.n_levels = max((tree.n_levels for tree in trees), default=0)
        self.roots = ids[:, 0]
        self._feature = feature.ravel()
        self._threshold = threshold.ravel()
        self._children = children.ravel()
        self._value = value.reshape(n_trees * width, n_outputs or 0)

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Flat leaf id reached in every tree, shape ``(n_trees, n_rows)``."""
        X = np.ascontiguousarray(X, dtype=float)
        n_rows, n_cols = X.shape
        flat_x = X.ravel()
        row_base = np.arange(n_rows) * n_cols
        node = np.repeat(self.roots[:, None], n_rows, axis=1)
        for _ in range(self.n_levels):
            goes_right = ~(flat_x.take(row_base + self._feature.take(node))
                           <= self._threshold.take(node))
            node = self._children.take(2 * node + goes_right)
        return node

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf id (local to its tree), shape ``(n_trees, n_rows)``."""
        return self.descend(X) - self.roots[:, None]

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree, shape ``(n_trees, n_rows, n_outputs)``."""
        return self._value.take(self.descend(X), axis=0)


class _TreeBuilder:
    """Growable node lists while CART grows one tree; :meth:`build` ends it."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_node_samples: list[float] = []

    def add_node(self, value: np.ndarray, n_samples: float) -> int:
        """Append a leaf node and return its id."""
        node = len(self.feature)
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.children_left.append(LEAF)
        self.children_right.append(LEAF)
        self.value.append(np.atleast_1d(np.asarray(value, dtype=float)))
        self.n_node_samples.append(float(n_samples))
        return node

    def make_split(self, node: int, feature: int, threshold: float,
                   left: int, right: int) -> None:
        """Turn leaf ``node`` into an internal node."""
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.children_left[node] = left
        self.children_right[node] = right

    def build(self) -> "TreeStructure":
        return TreeStructure(
            self.feature, self.threshold, self.children_left,
            self.children_right, np.stack(self.value), self.n_node_samples,
        )


@register_serializable("models.TreeStructure")
class TreeStructure:
    """Frozen array representation of a fitted binary tree.

    ``feature[n] == LEAF`` (-1) marks node ``n`` as a leaf, whose
    children are then -1 too. ``value`` holds the node prediction:
    class-probability vectors for classifiers (shape
    ``(n_nodes, n_classes)``), scalars for regressors
    (``(n_nodes, 1)``). ``n_node_samples`` is the training "cover" used
    by path-dependent TreeSHAP. Nodes are numbered in preorder, so every
    child id exceeds its parent's.

    The structure arrays are read-only from construction. ``value``
    stays writable until :meth:`freeze` — gradient boosting rewrites its
    leaf values with a Newton step in between — which the first
    :meth:`tolist` view and every ensemble table build call.
    """

    def __init__(self, feature, threshold, children_left, children_right,
                 value, n_node_samples) -> None:
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.children_left = np.array(children_left, dtype=np.intp)
        self.children_right = np.array(children_right, dtype=np.intp)
        self.value = np.array(value, dtype=float, ndmin=2)
        self.n_node_samples = np.array(n_node_samples, dtype=float)
        for array in (self.feature, self.threshold, self.children_left,
                      self.children_right, self.n_node_samples):
            array.flags.writeable = False
        self.n_levels = self.depth(0)
        self._table = TreeTable([self])
        self._lists: NodeLists | None = None

    def freeze(self) -> "TreeStructure":
        """Make ``value`` read-only too; returns ``self``."""
        self.value.flags.writeable = False
        return self

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == LEAF))

    def is_leaf(self, node: int) -> bool:
        return bool(self.feature[node] == LEAF)

    def depth(self, node: int = 0) -> int:
        """Height of the subtree rooted at ``node`` (leaf = 0)."""
        level = np.array([node])
        height = 0
        while True:
            level = level[self.feature[level] != LEAF]
            if level.size == 0:
                return height
            level = np.concatenate(
                [self.children_left[level], self.children_right[level]]
            )
            height += 1

    def tolist(self) -> NodeLists:
        """The node arrays as plain lists (``value`` as a list of rows).

        Recursive walkers read this instead of the arrays: list indexing
        is several times cheaper per node than numpy scalar indexing.
        Built on first use (freezing the tree) and cached.
        """
        if self._lists is None:
            self.freeze()
            self._lists = NodeLists(
                self.feature.tolist(), self.threshold.tolist(),
                self.children_left.tolist(), self.children_right.tolist(),
                self.value.tolist(), self.n_node_samples.tolist(),
            )
        return self._lists

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row of ``X``."""
        return self._table.descend(np.atleast_2d(np.asarray(X, dtype=float)))[0]

    def decision_path(self, x: np.ndarray) -> list[tuple[int, int, float, bool]]:
        """Internal nodes on the root-to-leaf path of ``x``.

        Each entry is ``(node, feature, threshold, went_left)``.
        """
        x = np.asarray(x, dtype=float).ravel()
        nodes = self.tolist()
        path = []
        node = 0
        while nodes.feature[node] != LEAF:
            feature, threshold = nodes.feature[node], nodes.threshold[node]
            went_left = bool(x[feature] <= threshold)
            path.append((node, feature, threshold, went_left))
            node = nodes.left[node] if went_left else nodes.right[node]
        return path

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf value rows for each row of ``X``, shape ``(n_rows, k)``."""
        return self.value[self.apply(X)]

    def used_features(self) -> set[int]:
        """Feature indices tested anywhere in the tree."""
        return set(self.feature[self.feature != LEAF].tolist())

    def to_dict(self) -> dict:
        """Persist payload: the six node arrays, ``value`` 2-D."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "children_left": self.children_left.tolist(),
            "children_right": self.children_right.tolist(),
            "value": self.value.copy(),
            "n_node_samples": self.n_node_samples.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TreeStructure":
        n_nodes = len(payload["feature"])
        value = np.array(payload["value"], dtype=float, ndmin=2)[:n_nodes]
        return cls(
            payload["feature"], payload["threshold"],
            payload["children_left"], payload["children_right"],
            value, payload["n_node_samples"],
        )


class TreeEnsemble:
    """``estimators_`` plus the stacked :class:`TreeTable` built from them.

    Assigning ``estimators_`` — at the end of ``fit``, by the persist
    loader, or by :func:`repro.io.load_model` — builds the table once;
    every prediction then descends all trees together.
    :meth:`_value_columns` lets a subclass align tree value columns.
    """

    @property
    def estimators_(self) -> list:
        return self._estimators

    @estimators_.setter
    def estimators_(self, trees) -> None:
        self._estimators = list(trees)
        columns, n_outputs = self._value_columns(self._estimators)
        self._table = TreeTable(
            [tree.tree_.freeze() for tree in self._estimators], columns, n_outputs
        )

    def _value_columns(self, trees: list) -> tuple[list | None, int]:
        return None, 1

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("estimators_")
        n_features = self.estimators_[0].n_features_ if self.estimators_ else None
        return self._check_width(X, n_features)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id of every row in every tree, shape ``(n_rows, n_trees)``."""
        return self._table.apply(self._check_input(X)).T

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows, n_outputs)`` leaf values, one descent."""
        return self._table.leaf_values(self._check_input(X))


class _BaseDecisionTree(BaseModel):
    """Shared recursive CART builder; subclasses define the impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.seed = seed

    # Subclass hooks -----------------------------------------------------------

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _impurity_reduction(
        self, y_sorted: np.ndarray, sw_sorted: np.ndarray
    ) -> np.ndarray:
        """Score every prefix split of a sorted node.

        Returns an array ``gain[k]`` for splitting after position ``k``
        (left = first k+1 rows); larger is better. Weighted by sample count.
        """
        raise NotImplementedError

    # Builder --------------------------------------------------------------------

    def _fit_tree(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None
    ) -> TreeStructure:
        n, d = X.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        sw = np.asarray(sample_weight, dtype=float)
        rng = np.random.default_rng(self.seed)
        builder = _TreeBuilder()
        self._build(builder, X, y, sw, np.arange(n), depth=0, rng=rng)
        return builder.build()

    def _build(
        self,
        tree: _TreeBuilder,
        X: np.ndarray,
        y: np.ndarray,
        sw: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        node = tree.add_node(
            self._node_value(y[idx], sw[idx]), float(sw[idx].sum())
        )
        if (
            idx.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or self._is_pure(y[idx])
        ):
            return node
        split = self._best_split(X, y, sw, idx, rng)
        if split is None:
            return node
        feature, threshold = split
        left_mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[left_mask], idx[~left_mask]
        left = self._build(tree, X, y, sw, left_idx, depth + 1, rng)
        right = self._build(tree, X, y, sw, right_idx, depth + 1, rng)
        tree.make_split(node, feature, threshold, left, right)
        return node

    def _is_pure(self, y: np.ndarray) -> bool:
        return np.unique(y).size <= 1

    def _candidate_features(self, d: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return rng.choice(d, size=self.max_features, replace=False)

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sw: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for feature in self._candidate_features(X.shape[1], rng):
            col = X[idx, feature]
            order = np.argsort(col, kind="mergesort")
            col_sorted = col[order]
            # Splits are only valid between distinct consecutive values.
            distinct = col_sorted[1:] != col_sorted[:-1]
            if not distinct.any():
                continue
            gains = self._impurity_reduction(y[idx][order], sw[idx][order])
            k_count = np.arange(1, idx.size)
            valid = (
                distinct
                & (k_count >= self.min_samples_leaf)
                & (idx.size - k_count >= self.min_samples_leaf)
            )
            gains = np.where(valid, gains, -np.inf)
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                threshold = 0.5 * (col_sorted[k] + col_sorted[k + 1])
                best = (int(feature), float(threshold))
        return best


@register_serializable("models.DecisionTreeClassifier")
class DecisionTreeClassifier(Serializable, ClassifierMixin, _BaseDecisionTree):
    """CART classifier with gini or entropy impurity."""

    __persist_init__ = ("max_depth", "min_samples_split", "min_samples_leaf",
                        "max_features", "criterion", "seed")
    __persist_state__ = ("classes_", "n_classes_", "n_features_", "tree_")

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        criterion: str = "gini",
        seed: int = 0,
    ) -> None:
        super().__init__(max_depth, min_samples_split, min_samples_leaf,
                         max_features, seed)
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = self._check_Xy(X, y)
        self.classes_, encoded = self._encode_labels(y)
        self.n_classes_ = len(self.classes_)
        self.n_features_ = X.shape[1]
        self.tree_ = self._fit_tree(X, encoded, sample_weight)
        return self

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(int), weights=sw, minlength=self.n_classes_)
        total = counts.sum()
        return counts / total if total > 0 else np.full(self.n_classes_, 1.0 / self.n_classes_)

    def _impurity_reduction(self, y_sorted, sw_sorted) -> np.ndarray:
        n = y_sorted.shape[0]
        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), y_sorted.astype(int)] = 1.0
        onehot *= sw_sorted[:, None]
        left_counts = np.cumsum(onehot, axis=0)[:-1]  # after position k
        total_counts = left_counts[-1] + onehot[-1]
        right_counts = total_counts[None, :] - left_counts
        left_n = left_counts.sum(axis=1)
        right_n = right_counts.sum(axis=1)
        total_n = left_n + right_n

        def impurity(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
            p = counts / np.maximum(size, 1e-12)[:, None]
            if self.criterion == "gini":
                return 1.0 - (p ** 2).sum(axis=1)
            safe = np.where(p > 0, p, 1.0)  # log2(1) = 0 kills the term
            return -(p * np.log2(safe)).sum(axis=1)

        parent = impurity(total_counts[None, :], total_n[:1])[0]
        child = (
            left_n * impurity(left_counts, left_n)
            + right_n * impurity(right_counts, right_n)
        ) / np.maximum(total_n, 1e-12)
        return (parent - child) * total_n

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("tree_")
        return self.tree_.predict_value(self._check_width(X, self.n_features_))


@register_serializable("models.DecisionTreeRegressor")
class DecisionTreeRegressor(Serializable, RegressorMixin, _BaseDecisionTree):
    """CART regressor minimizing weighted squared error."""

    __persist_init__ = ("max_depth", "min_samples_split", "min_samples_leaf",
                        "max_features", "seed")
    __persist_state__ = ("n_features_", "tree_")

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X, y = self._check_Xy(X, y)
        self.n_features_ = X.shape[1]
        self.tree_ = self._fit_tree(X, y.astype(float), sample_weight)
        return self

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        total = sw.sum()
        mean = float((sw * y).sum() / total) if total > 0 else 0.0
        return np.array([mean])

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.ptp(y) < 1e-12) if y.size else True

    def _impurity_reduction(self, y_sorted, sw_sorted) -> np.ndarray:
        # Variance reduction via weighted prefix sums of y and y².
        wy = sw_sorted * y_sorted
        wy2 = sw_sorted * y_sorted ** 2
        cw = np.cumsum(sw_sorted)
        cwy = np.cumsum(wy)
        cwy2 = np.cumsum(wy2)
        total_w, total_wy, total_wy2 = cw[-1], cwy[-1], cwy2[-1]
        left_w, left_wy, left_wy2 = cw[:-1], cwy[:-1], cwy2[:-1]
        right_w = total_w - left_w
        right_wy = total_wy - left_wy
        right_wy2 = total_wy2 - left_wy2

        def sse(w, s1, s2):
            # Σ w y² − (Σ w y)² / Σ w, guarded against empty sides.
            return s2 - np.where(w > 0, s1 ** 2 / np.maximum(w, 1e-12), 0.0)

        parent_sse = sse(total_w, total_wy, total_wy2)
        child_sse = sse(left_w, left_wy, left_wy2) + sse(right_w, right_wy, right_wy2)
        return parent_sse - child_sse

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("tree_")
        return self.tree_.predict_value(
            self._check_width(X, self.n_features_)
        ).ravel()
