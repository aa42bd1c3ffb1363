"""Shapley flow: edge-based model interpretation [Wang, Wiens & Lundberg 2021].

Shapley flow moves attribution from nodes to the *edges* of a causal
graph: each edge receives the credit that flows along it from causes to
the model output. Credit is averaged over random depth-first traversals
from a virtual root: traversing an edge transmits the source's current
value to the target, the target's mechanism re-evaluates, and the update
propagates by re-traversing the target's own out-edges. An edge's credit
for one traversal event is the model-output change over the whole DFS
subtree the event initiates — the "flow through the edge".

This accounting makes conservation exact per ordering for every
*boundary* (an ancestor-closed root/sink cut): each output change happens
at a sink-edge event and is credited once to every edge on its DFS
ancestry chain, which crosses any boundary exactly once. In particular

* the sink-side boundary (edges feature → output) reproduces
  asymmetric-Shapley-style node attributions, and
* the root-side boundary assigns all credit to root causes (and noise).

Noise handling: every non-source variable gets an explicit exogenous
source holding its abducted noise under the additive-noise assumption
``u_v = x_v − f_v(x_parents, 0)`` (exact for linear mechanisms), so the
graph is deterministic given its sources.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.base import Explainer
from .scm import StructuralCausalModel

__all__ = ["ShapleyFlowExplainer", "FlowResult"]

_SINK = "__output__"
_ROOT = "__root__"


class FlowResult:
    """Edge credits of one Shapley-flow explanation."""

    def __init__(self, credits: dict[tuple[str, str], float],
                 foreground_output: float, background_output: float) -> None:
        self.credits = dict(credits)
        self.foreground_output = foreground_output
        self.background_output = background_output

    def edge(self, source: str, target: str) -> float:
        """Credit of one edge (0 for edges never traversed)."""
        return self.credits.get((source, target), 0.0)

    def boundary_attributions(self) -> dict[str, float]:
        """Node attributions at the sink cut: credit of feature→output edges."""
        return {
            u: credit for (u, v), credit in self.credits.items() if v == _SINK
        }

    def root_attributions(self) -> dict[str, float]:
        """Node attributions at the source cut (distal credit, incl. noise)."""
        return {
            v: credit for (u, v), credit in self.credits.items() if u == _ROOT
        }

    def conservation_gap(self) -> float:
        """Max |Σ boundary credits − (f(x) − f(bg))| over both named cuts."""
        total = self.foreground_output - self.background_output
        sink_gap = abs(sum(self.boundary_attributions().values()) - total)
        root_gap = abs(sum(self.root_attributions().values()) - total)
        return max(sink_gap, root_gap)


class ShapleyFlowExplainer(Explainer):
    """Monte-Carlo Shapley flow over an SCM with additive noise.

    Parameters
    ----------
    model:
        Callable or fitted model over the feature columns.
    scm:
        Causal graph with mechanisms ``f(parents, noise)`` additive in the
        noise argument.
    feature_order:
        SCM variables feeding the model, in column order. Only these
        variables and their SCM ancestors participate.
    n_orderings:
        Number of random DFS traversals averaged.
    """

    method_name = "shapley_flow"

    def __init__(
        self,
        model,
        scm: StructuralCausalModel,
        feature_order: list[str],
        n_orderings: int = 50,
        seed: int = 0,
    ) -> None:
        super().__init__(model)
        self.scm = scm
        self.feature_order = list(feature_order)
        self.n_orderings = n_orderings
        self.seed = seed

    # -- deterministic node evaluation ----------------------------------------

    def _abduct(self, values: dict[str, float]) -> dict[str, float]:
        """Additive-noise abduction: u_v = x_v − f_v(x_parents, 0)."""
        noise = {}
        for name, value in values.items():
            parents = {
                p: np.asarray([values[p]]) for p in self.scm.parents(name)
            }
            mechanism_value = float(
                self.scm._mechanisms[name](parents, np.zeros(1))[0]
            )
            noise[name] = value - mechanism_value
        return noise

    def _mechanism(self, name: str, parent_values: dict[str, float],
                   noise_value: float) -> float:
        parents = {p: np.asarray([v]) for p, v in parent_values.items()}
        return float(
            self.scm._mechanisms[name](parents, np.asarray([noise_value]))[0]
        )

    def explain(self, x: dict[str, float], baseline: dict[str, float]
                ) -> FlowResult:
        """Explain f at foreground ``x`` against ``baseline``.

        Both are full assignments ``{variable: value}`` covering the
        feature variables (extra variables are ignored).
        """
        fg = {v: float(x[v]) for v in self.scm.variables if v in x}
        bg = {v: float(baseline[v]) for v in self.scm.variables if v in baseline}
        missing = [f for f in self.feature_order if f not in fg or f not in bg]
        if missing:
            raise ValueError(f"assignments missing features {missing}")
        fg_noise = self._abduct(fg)
        bg_noise = self._abduct(bg)

        # Build the augmented graph: noise sources, virtual root and sink.
        out_edges: dict[str, list[str]] = defaultdict(list)
        root_children: list[str] = []
        participating = [v for v in self.scm.variables if v in fg]
        for name in participating:
            parents = [p for p in self.scm.parents(name) if p in fg]
            if parents:
                noise_node = f"u_{name}"
                root_children.append(noise_node)
                out_edges[noise_node].append(name)
                for p in parents:
                    out_edges[p].append(name)
            else:
                root_children.append(name)
            if name in self.feature_order:
                out_edges[name].append(_SINK)

        rng = np.random.default_rng(self.seed)
        totals: dict[tuple[str, str], float] = defaultdict(float)

        def model_output(view: dict[str, float]) -> float:
            row = np.asarray([view[f] for f in self.feature_order], dtype=float)
            return float(self.predict_fn(row[None, :])[0])

        fg_out = model_output(fg)
        bg_out = model_output(bg)

        for __ in range(self.n_orderings):
            node_value: dict[str, float] = {}
            edge_value: dict[tuple[str, str], float] = {}
            for name in participating:
                node_value[name] = bg[name]
                node_value[f"u_{name}"] = bg_noise.get(name, 0.0)
            for source, targets in out_edges.items():
                for target in targets:
                    edge_value[(source, target)] = node_value.get(source, 0.0)
            state = {"output": bg_out}

            def recompute(node: str) -> None:
                parents = [p for p in self.scm.parents(node) if p in fg]
                parent_values = {p: edge_value[(p, node)] for p in parents}
                noise_value = edge_value[(f"u_{node}", node)]
                node_value[node] = self._mechanism(node, parent_values, noise_value)

            def traverse(node: str) -> None:
                successors = list(out_edges[node])
                rng.shuffle(successors)
                for succ in successors:
                    out_before = state["output"]
                    edge_value[(node, succ)] = node_value[node]
                    if succ == _SINK:
                        view = {
                            f: edge_value[(f, _SINK)] for f in self.feature_order
                        }
                        state["output"] = model_output(view)
                    else:
                        recompute(succ)
                        traverse(succ)
                    totals[(node, succ)] += state["output"] - out_before

            order = list(root_children)
            rng.shuffle(order)
            for child in order:
                out_before = state["output"]
                if child.startswith("u_"):
                    node_value[child] = fg_noise.get(child[2:], 0.0)
                else:
                    node_value[child] = fg[child]
                traverse(child)
                totals[(_ROOT, child)] += state["output"] - out_before

        credits = {
            edge: total / self.n_orderings for edge, total in totals.items()
        }
        return FlowResult(credits, fg_out, bg_out)
