"""Per-row tree walks: the oracles for the vectorized tree paths.

Prediction: the traversal the tree models used before they descended
level-synchronously through a stacked node table — one Python ``while``
loop per row and per tree, testing ``x[feature] <= threshold`` (so NaN
goes right). The ensemble oracles accumulate per tree in stage order, as
the models do, so a fast path must match them bit for bit.

TreeSHAP: the per-row recursions the explainers ran before the leaf-path
table kernel — the scalar ``_PathElement`` EXTEND/UNWIND recursion of
path-dependent TreeSHAP (Lundberg et al. 2020, Algorithm 2) and the
per-leaf, per-background-row loop of interventional TreeSHAP. The fast
kernel sums in a different order, so it is held to these at 1e-12, not
bitwise.
"""

from __future__ import annotations

from math import factorial

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


def loop_path_table(tree, weight, class_index):
    """The leaf-path table of one tree, by an explicit-stack walk.

    One ``(weight × leaf value, {feature: zero fraction})`` per leaf, in
    depth-first left-first order; a feature's zero fraction is the
    product of its cover fractions down the path.
    """
    out = []
    stack = [(0, {})]
    while stack:
        node, zeros = stack.pop()
        feature = int(tree.feature[node])
        if feature == LEAF:
            row = tree.value[node]
            value = float(row[0] if class_index is None else row[class_index])
            out.append((weight * value, zeros))
            continue
        cover = float(tree.n_node_samples[node])
        for child in (int(tree.children_right[node]),
                      int(tree.children_left[node])):
            child_zeros = dict(zeros)
            child_zeros[feature] = (zeros.get(feature, 1.0)
                                    * float(tree.n_node_samples[child]) / cover)
            stack.append((child, child_zeros))
    return out


class _PathElement:
    """One entry of the TreeSHAP path summary."""

    __slots__ = ("feature", "zero_fraction", "one_fraction", "pweight")

    def __init__(self, feature: int = -1, zero_fraction: float = 0.0,
                 one_fraction: float = 0.0, pweight: float = 0.0) -> None:
        self.feature = feature
        self.zero_fraction = zero_fraction
        self.one_fraction = one_fraction
        self.pweight = pweight

    def copy(self) -> "_PathElement":
        return _PathElement(
            self.feature, self.zero_fraction, self.one_fraction, self.pweight
        )


def _extend(path, depth, zero_fraction, one_fraction, feature) -> None:
    path[depth].feature = feature
    path[depth].zero_fraction = zero_fraction
    path[depth].one_fraction = one_fraction
    path[depth].pweight = 1.0 if depth == 0 else 0.0
    for i in range(depth - 1, -1, -1):
        path[i + 1].pweight += (
            one_fraction * path[i].pweight * (i + 1) / (depth + 1)
        )
        path[i].pweight = (
            zero_fraction * path[i].pweight * (depth - i) / (depth + 1)
        )


def _unwind(path, depth, index) -> None:
    one_fraction = path[index].one_fraction
    zero_fraction = path[index].zero_fraction
    next_one = path[depth].pweight
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = path[i].pweight
            path[i].pweight = next_one * (depth + 1) / ((i + 1) * one_fraction)
            next_one = tmp - path[i].pweight * zero_fraction * (depth - i) / (depth + 1)
        else:
            path[i].pweight = path[i].pweight * (depth + 1) / (
                zero_fraction * (depth - i)
            )
    for i in range(index, depth):
        path[i].feature = path[i + 1].feature
        path[i].zero_fraction = path[i + 1].zero_fraction
        path[i].one_fraction = path[i + 1].one_fraction


def _unwound_sum(path, depth, index) -> float:
    one_fraction = path[index].one_fraction
    zero_fraction = path[index].zero_fraction
    next_one = path[depth].pweight
    total = 0.0
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = next_one * (depth + 1) / ((i + 1) * one_fraction)
            total += tmp
            next_one = path[i].pweight - tmp * zero_fraction * (depth - i) / (depth + 1)
        else:
            total += path[i].pweight * (depth + 1) / (zero_fraction * (depth - i))
    return total


def _leaf_scalar(row, class_index):
    return row[0 if class_index is None else class_index]


def tree_shap_values(tree, x, n_features, class_index=None) -> np.ndarray:
    """Path-dependent Shapley values of one tree, by scalar recursion."""
    x = np.asarray(x, dtype=float).ravel()
    phi = np.zeros(n_features)
    max_depth = tree.n_levels + 2
    nodes = tree.tolist()

    def recurse(node, parent_path, depth, zero_fraction, one_fraction,
                feature):
        path = [el.copy() for el in parent_path]
        while len(path) <= depth + max_depth:
            path.append(_PathElement())
        _extend(path, depth, zero_fraction, one_fraction, feature)
        split_feature = nodes.feature[node]
        if split_feature == LEAF:
            leaf_value = _leaf_scalar(nodes.value[node], class_index)
            for i in range(1, depth + 1):
                w = _unwound_sum(path, depth, i)
                phi[path[i].feature] += (
                    w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value
                )
            return
        left, right = nodes.left[node], nodes.right[node]
        hot, cold = (
            (left, right) if x[split_feature] <= nodes.threshold[node] else (right, left)
        )
        incoming_zero, incoming_one = 1.0, 1.0
        new_depth = depth
        # A repeat split on the same feature must first undo its previous
        # path entry (the path tracks *unique* features).
        for i in range(1, depth + 1):
            if path[i].feature == split_feature:
                incoming_zero = path[i].zero_fraction
                incoming_one = path[i].one_fraction
                _unwind(path, depth, i)
                new_depth = depth - 1
                break
        cover = nodes.cover[node]
        recurse(hot, path, new_depth + 1,
                incoming_zero * nodes.cover[hot] / cover,
                incoming_one, split_feature)
        recurse(cold, path, new_depth + 1,
                incoming_zero * nodes.cover[cold] / cover,
                0.0, split_feature)

    recurse(0, [], 0, 1.0, 1.0, -1)
    return phi


def _leaf_paths(tree):
    """``(leaf value row, {feature: [(threshold, went_left), ...]})`` per leaf."""
    out = []
    nodes = tree.tolist()

    def walk(node, conditions):
        feature = nodes.feature[node]
        if feature == LEAF:
            out.append((nodes.value[node],
                        {k: list(v) for k, v in conditions.items()}))
            return
        threshold = nodes.threshold[node]
        conditions.setdefault(feature, []).append((threshold, True))
        walk(nodes.left[node], conditions)
        conditions[feature][-1] = (threshold, False)
        walk(nodes.right[node], conditions)
        conditions[feature].pop()
        if not conditions[feature]:
            del conditions[feature]

    walk(0, {})
    return out


def _satisfies(value, conditions) -> bool:
    # A right branch is "not <=", as in predict, so NaN routes right.
    return all(
        (value <= threshold) == went_left
        for threshold, went_left in conditions
    )


def interventional_tree_shap(tree, x, background, n_features,
                             class_index=None):
    """Marginal-game Shapley values of one tree; returns ``(phi, base)``.

    Per background row and leaf: features whose split tests only ``x``
    passes (A) and only ``z`` passes (B) get the closed-form weights
    (a-1)!b!/(a+b)! and -a!(b-1)!/(a+b)!; a feature neither passes kills
    the leaf. ``base`` is the mean tree output over the background.
    """
    x = np.asarray(x, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    paths = _leaf_paths(tree)
    phi = np.zeros(n_features)
    base = 0.0
    for z in background:
        for row, conditions in paths:
            value = _leaf_scalar(row, class_index)
            x_only, z_only = [], []
            dead = False
            for feature, terms in conditions.items():
                x_ok = _satisfies(x[feature], terms)
                z_ok = _satisfies(z[feature], terms)
                if x_ok and not z_ok:
                    x_only.append(feature)
                elif z_ok and not x_ok:
                    z_only.append(feature)
                elif not x_ok and not z_ok:
                    dead = True
                    break
            if dead:
                continue
            a, b = len(x_only), len(z_only)
            if a == 0:
                base += value  # reachable with the empty coalition
            if a + b == 0:
                continue  # constant contribution, no attribution
            total = factorial(a + b)
            if a > 0:
                weight = factorial(a - 1) * factorial(b) / total
                for feature in x_only:
                    phi[feature] += value * weight
            if b > 0:
                weight = factorial(a) * factorial(b - 1) / total
                for feature in z_only:
                    phi[feature] -= value * weight
    n_background = background.shape[0]
    return phi / n_background, base / n_background


def _is_boosting(model) -> bool:
    return hasattr(model, "init_raw_")


def tree_shap_explain(model, x):
    """Ensemble path-dependent TreeSHAP ``(phi, expected value)`` of one
    row: the scalar recursion per component tree, weighted and summed."""
    from repro.shapley.tree import _decompose, tree_expected_value

    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    phi = np.zeros(n)
    base = 0.0
    for tree, weight, class_index in _decompose(model):
        phi += weight * tree_shap_values(tree, x, n, class_index)
        base += weight * tree_expected_value(tree, x, np.zeros(n, bool),
                                             class_index)
    if _is_boosting(model):
        base += model.init_raw_
    return phi, base


def interventional_explain(model, x, background):
    """Ensemble interventional TreeSHAP ``(phi, base value)`` of one row."""
    from repro.shapley.tree import _decompose

    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    phi = np.zeros(n)
    base = 0.0
    for tree, weight, class_index in _decompose(model):
        tree_phi, tree_base = interventional_tree_shap(
            tree, x, background, n, class_index
        )
        phi += weight * tree_phi
        base += weight * tree_base
    if _is_boosting(model):
        base += model.init_raw_
    return phi, base
