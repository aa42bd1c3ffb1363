"""Boolean circuits in deterministic, decomposable, smooth form (d-DNNF).

The logic-based XAI line (§2.2.2) and the tractable-SHAP results [Arenas+
2021; Van den Broeck+ 2021] both work on Boolean circuits with structural
properties:

* **decomposable** — AND gates have children over disjoint variables,
* **deterministic** — OR gates have mutually exclusive children,
* **smooth** — OR children mention the same variable set.

On such circuits, weighted model counting and conditional expectations
under fully factorized feature distributions are linear-time, and exact
SHAP scores are polynomial (:mod:`repro.logic.circuit_shap`).

Decision trees over binary features compile to d-DNNF directly: the
circuit is the OR over accepting root-to-leaf paths of the AND of the
path's literals — deterministic because paths are mutually exclusive,
decomposable because a path tests each variable at most once, and smoothed
here by multiplying in ⊤-gates for unmentioned variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.tree import LEAF, TreeStructure

__all__ = [
    "Literal",
    "AndNode",
    "OrNode",
    "TrueNode",
    "compile_tree",
    "conditional_expectation",
    "model_count",
    "binarize_matrix",
]


@dataclass(frozen=True)
class Literal:
    """``x_var`` (positive) or ``¬x_var``."""

    var: int
    positive: bool

    @property
    def variables(self) -> frozenset[int]:
        return frozenset([self.var])

    def evaluate(self, assignment: np.ndarray) -> bool:
        return bool(assignment[self.var]) == self.positive


@dataclass(frozen=True)
class TrueNode:
    """⊤ over one variable: (x_var ∨ ¬x_var). Used for smoothing."""

    var: int

    @property
    def variables(self) -> frozenset[int]:
        return frozenset([self.var])

    def evaluate(self, assignment: np.ndarray) -> bool:
        return True


class AndNode:
    """Decomposable conjunction."""

    def __init__(self, children: list) -> None:
        seen: set[int] = set()
        for child in children:
            overlap = seen & child.variables
            if overlap:
                raise ValueError(f"AND not decomposable: vars {overlap} repeat")
            seen |= child.variables
        self.children = list(children)
        self.variables = frozenset(seen)

    def evaluate(self, assignment: np.ndarray) -> bool:
        return all(c.evaluate(assignment) for c in self.children)


class OrNode:
    """Deterministic, smooth disjunction.

    Determinism (mutual exclusivity of children) is the *caller's*
    obligation — it is not checkable locally in polynomial time; the tree
    compiler guarantees it by construction. Smoothness is enforced here.
    """

    def __init__(self, children: list) -> None:
        if not children:
            raise ValueError("OR needs at least one child")
        var_sets = {c.variables for c in children}
        if len(var_sets) != 1:
            raise ValueError("OR not smooth: children mention different vars")
        self.children = list(children)
        self.variables = children[0].variables

    def evaluate(self, assignment: np.ndarray) -> bool:
        return any(c.evaluate(assignment) for c in self.children)


def _smooth(node, all_vars: frozenset[int]):
    """Extend ``node`` to mention ``all_vars`` by AND-ing ⊤-gates."""
    missing = all_vars - node.variables
    if not missing:
        return node
    return AndNode([node] + [TrueNode(v) for v in sorted(missing)])


def compile_tree(
    tree: TreeStructure, n_features: int, positive_class: int = 1
) -> object:
    """Compile a binary-feature decision tree into a smooth d-DNNF circuit.

    The tree must split binary features at thresholds inside (0, 1) (the
    convention produced by :func:`binarize_matrix` + CART: going left
    means the feature is 0). The circuit is true exactly when the tree
    predicts ``positive_class``.
    """
    all_vars = frozenset(range(n_features))
    paths: list[list[Literal]] = []
    nodes = tree.tolist()

    def walk(node: int, literals: list[Literal]) -> None:
        feature = nodes.feature[node]
        if feature == LEAF:
            value = nodes.value[node]
            predicted = int(np.argmax(value)) if len(value) > 1 else int(value[0] >= 0.5)
            if predicted == positive_class:
                paths.append(list(literals))
            return
        threshold = nodes.threshold[node]
        if not 0.0 < threshold < 1.0:
            raise ValueError(
                f"node {node} splits feature {feature} at {threshold}; "
                "compile_tree requires binarized features"
            )
        walk(nodes.left[node], literals + [Literal(feature, False)])
        walk(nodes.right[node], literals + [Literal(feature, True)])

    walk(0, [])
    if not paths:
        raise ValueError("tree never predicts the positive class")
    disjuncts = []
    for literals in paths:
        # A path tests each feature at most once after CART pruning, but a
        # redundant re-test is consistent — deduplicate defensively.
        unique = {(l.var, l.positive) for l in literals}
        vars_on_path = {v for v, __ in unique}
        if len(vars_on_path) != len(unique):
            raise ValueError("contradictory path literals")
        conj = [Literal(v, pos) for v, pos in sorted(unique)]
        if len(conj) == 1:
            disjuncts.append(_smooth(conj[0], all_vars))
        else:
            disjuncts.append(_smooth(AndNode(conj), all_vars))
    if len(disjuncts) == 1:
        return disjuncts[0]
    return OrNode(disjuncts)


def conditional_expectation(
    node,
    x: np.ndarray,
    mask: np.ndarray,
    p: np.ndarray,
) -> float:
    """E[circuit | x_S] under the product distribution P(x_v = 1) = p[v].

    Features with ``mask[v]`` true are fixed to ``x[v]``; the rest are
    independent Bernoulli(p[v]). Linear time on d-DNNF: literals read the
    table, ANDs multiply (decomposability), ORs add (determinism).
    """
    x = np.asarray(x).astype(bool).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    p = np.asarray(p, dtype=float).ravel()

    def recurse(n) -> float:
        if isinstance(n, TrueNode):
            return 1.0
        if isinstance(n, Literal):
            if mask[n.var]:
                return 1.0 if x[n.var] == n.positive else 0.0
            return p[n.var] if n.positive else 1.0 - p[n.var]
        if isinstance(n, AndNode):
            out = 1.0
            for child in n.children:
                out *= recurse(child)
                if out == 0.0:
                    break
            return out
        return sum(recurse(child) for child in n.children)

    return recurse(node)


def model_count(node, n_features: int) -> int:
    """Number of satisfying assignments over ``n_features`` variables."""
    p = np.full(n_features, 0.5)
    zeros = np.zeros(n_features, dtype=bool)
    expectation = conditional_expectation(node, zeros, zeros, p)
    return int(round(expectation * 2 ** n_features))


def binarize_matrix(X: np.ndarray, thresholds: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Median-binarize a feature matrix; returns ``(binary_X, thresholds)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if thresholds is None:
        thresholds = np.median(X, axis=0)
    binary = (X > thresholds).astype(float)
    return binary, thresholds
