"""Per-row list-walk tree prediction: the oracle for the vectorized paths.

This is the traversal the tree models used before they descended
level-synchronously through a stacked node table: one Python ``while``
loop per row and per tree, testing ``x[feature] <= threshold`` (so NaN
goes right). The ensemble oracles accumulate per tree in stage order, as
the models do, so a fast path must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

LEAF = -1


def walk_apply(tree, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by each row of ``X`` in one ``TreeStructure``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    feature = tree.feature.tolist()
    threshold = tree.threshold.tolist()
    left = tree.children_left.tolist()
    right = tree.children_right.tolist()
    out = np.zeros(X.shape[0], dtype=int)
    for i, x in enumerate(X):
        node = 0
        while feature[node] != LEAF:
            if x[feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = node
    return out


def walk_predict_value(tree, X: np.ndarray) -> np.ndarray:
    """Stacked leaf value rows, ``(n_rows, k)``."""
    return np.stack([tree.value[n] for n in walk_apply(tree, X)])


def walk_gbm_raw(model, X: np.ndarray) -> np.ndarray:
    """GBM raw score: init plus each stage's scaled value, in stage order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(X.shape[0], model.init_raw_)
    for stage in model.estimators_:
        out += model.learning_rate * walk_predict_value(stage.tree_, X).ravel()
    return out


def walk_gbm_staged(model, X: np.ndarray) -> list[np.ndarray]:
    """Raw score after each boosting stage."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(X.shape[0], model.init_raw_)
    staged = []
    for stage in model.estimators_:
        out = out + model.learning_rate * walk_predict_value(stage.tree_, X).ravel()
        staged.append(out)
    return staged


def walk_forest_proba(model, X: np.ndarray) -> np.ndarray:
    """Forest class probabilities with per-tree class-column alignment."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    proba = np.zeros((X.shape[0], len(model.classes_)))
    for tree in model.estimators_:
        tree_proba = walk_predict_value(tree.tree_, X)
        for k, label in enumerate(tree.classes_):
            col = int(np.searchsorted(model.classes_, label))
            proba[:, col] += tree_proba[:, k]
    return proba / len(model.estimators_)


def loop_tree_arrays(tree, class_index):
    """TreeSHAP precompute by per-node loops: ``(leaf value, cover frac)``.

    ``value[n]`` is leaf ``n``'s explained scalar (0 at internal nodes);
    ``frac[c]`` is child ``c``'s cover over its parent's (1 at the root).
    """
    n_nodes = tree.n_nodes
    value = np.zeros(n_nodes)
    frac = np.ones(n_nodes)
    cover = tree.n_node_samples
    for node in range(n_nodes):
        if tree.feature[node] == LEAF:
            row = tree.value[node]
            value[node] = float(row[0] if class_index is None else row[class_index])
        else:
            for child in (tree.children_left[node], tree.children_right[node]):
                frac[child] = cover[child] / cover[node]
    return value, frac
