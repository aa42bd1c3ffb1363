"""Anchors: high-precision model-agnostic rule explanations [Ribeiro+ 2018].

An anchor for instance x is a rule A (conjunction of predicates satisfied
by x) such that perturbed samples satisfying A receive the same model
prediction as x with high probability:  P(f(z) = f(x) | z ⊨ A) ≥ τ.
The search greedily grows candidate rules one predicate at a time,
choosing the best extension with the KL-LUCB bandit (each candidate rule
is an arm; pulls are perturbation draws conditioned on the rule), and
stops when a candidate provably exceeds the precision target — beam
search with beam width 1 per the paper's greedy variant, which it reports
is usually enough.

Numeric features are discretized into quantile bins so predicates take
the form ``lo < x_j ≤ hi``; categorical predicates are equalities.
"""

from __future__ import annotations

import numpy as np

from ..core.base import Explainer
from ..core.dataset import TabularDataset
from ..core.explanation import Predicate, RuleExplanation
from .bandit import KLLucb, kl_lower_bound

__all__ = ["AnchorExplainer"]


class AnchorExplainer(Explainer):
    """Greedy bandit-driven anchor search.

    Parameters
    ----------
    data:
        Training data for perturbation statistics and predicate bins.
    precision_target:
        τ — required precision of the returned rule.
    n_bins:
        Quantile bins per numeric feature.
    delta, epsilon:
        Bandit confidence and tolerance.
    """

    method_name = "anchors"

    def __init__(
        self,
        model,
        data: TabularDataset,
        precision_target: float = 0.95,
        n_bins: int = 4,
        delta: float = 0.05,
        epsilon: float = 0.1,
        batch_size: int = 20,
        max_predicates: int = 4,
        coverage_samples: int = 1000,
        beam_width: int = 1,
        output: str = "auto",
        seed: int = 0,
    ) -> None:
        super().__init__(model, output)
        self.data = data
        self.precision_target = precision_target
        self.n_bins = n_bins
        self.delta = delta
        self.epsilon = epsilon
        self.batch_size = batch_size
        self.max_predicates = max_predicates
        self.coverage_samples = coverage_samples
        self.beam_width = max(1, beam_width)
        self.seed = seed
        self._bins = self._quantile_bins()

    def _quantile_bins(self) -> list[np.ndarray]:
        bins: list[np.ndarray] = []
        for j, spec in enumerate(self.data.features):
            if spec.is_categorical:
                bins.append(np.array([]))
            else:
                qs = np.linspace(0, 1, self.n_bins + 1)[1:-1]
                bins.append(np.unique(np.quantile(self.data.X[:, j], qs)))
        return bins

    def _candidate_predicates(self, x: np.ndarray) -> list[list[Predicate]]:
        """For each feature, the predicate(s) x satisfies (an interval
        is encoded as up to two inequality predicates)."""
        candidates: list[list[Predicate]] = []
        for j, spec in enumerate(self.data.features):
            if spec.is_categorical:
                candidates.append(
                    [Predicate(j, "==", float(x[j]), spec.name)]
                )
                continue
            edges = self._bins[j]
            bin_idx = int(np.searchsorted(edges, x[j], side="right"))
            preds: list[Predicate] = []
            if bin_idx > 0:
                preds.append(Predicate(j, ">", float(edges[bin_idx - 1]), spec.name))
            if bin_idx < len(edges):
                preds.append(Predicate(j, "<=", float(edges[bin_idx]), spec.name))
            candidates.append(preds)
        return candidates

    def _sample_conditioned(
        self,
        x: np.ndarray,
        fixed_features: set[int],
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturbations: anchored features copy x, others are resampled
        from random training rows (the reference implementation's
        empirical perturbation distribution)."""
        rows = self.data.X[rng.integers(0, self.data.n_samples, n)].copy()
        for j in fixed_features:
            rows[:, j] = x[j]
        return rows

    def _precision_sampler(self, x: np.ndarray, features: set[int],
                           target_label: int, rng: np.random.Generator):
        def sample(batch: int) -> float:
            rows = self._sample_conditioned(x, features, batch, rng)
            agree = (self.predict_fn(rows) >= 0.5).astype(int) == target_label
            return float(np.mean(agree))

        return sample

    def _rule_from_features(self, features: frozenset[int],
                            per_feature, target_label: int,
                            precision: float) -> RuleExplanation:
        predicates: list[Predicate] = []
        for j in sorted(features):
            predicates.extend(per_feature[j])
        return RuleExplanation(
            predicates=predicates,
            outcome=float(target_label),
            precision=precision,
            coverage=0.0,
            method=self.method_name,
        )

    def explain(self, x: np.ndarray, seed: int | None = None) -> RuleExplanation:
        """Beam-search anchor construction (greedy when ``beam_width=1``).

        Each round extends every beam member by one feature; a single
        KL-LUCB instance over all extensions allocates samples and keeps
        the ``beam_width`` most precise. The search stops when a
        candidate's precision lower bound clears the target; ties are
        broken toward higher coverage, per the paper.
        """
        x = np.asarray(x, dtype=float).ravel()
        rng = np.random.default_rng(self.seed if seed is None else seed)
        target_label = int(self.predict_fn(x[None, :])[0] >= 0.5)
        per_feature = self._candidate_predicates(x)
        usable = [
            j for j in range(self.data.n_features) if per_feature[j]
        ]
        coverage_rows = self.data.X[
            rng.integers(0, self.data.n_samples, self.coverage_samples)
        ]
        beam: list[frozenset[int]] = [frozenset()]
        best_rule: RuleExplanation | None = None
        best_stats: tuple[float, float] = (0.0, 0.0)  # (precision, n)
        n_evals = 0
        beta = np.log(1.0 / self.delta)
        for __ in range(self.max_predicates):
            extensions: list[frozenset[int]] = []
            seen: set[frozenset[int]] = set()
            for member in beam:
                for j in usable:
                    if j in member:
                        continue
                    candidate = frozenset(member | {j})
                    if candidate not in seen:
                        seen.add(candidate)
                        extensions.append(candidate)
            if not extensions:
                break
            arms = [
                self._precision_sampler(x, set(c), target_label, rng)
                for c in extensions
            ]
            bandit = KLLucb(arms, delta=self.delta,
                            batch_size=self.batch_size)
            top, means, counts = bandit.top_arms(
                k=min(self.beam_width, len(extensions)),
                epsilon=self.epsilon,
                max_pulls=200 * len(extensions),
            )
            n_evals += int(counts.sum())
            beam = [extensions[int(i)] for i in top]
            verified = []
            for i in top:
                precision = float(means[int(i)])
                n_i = int(counts[int(i)])
                if kl_lower_bound(precision, n_i, beta) >= self.precision_target:
                    verified.append((extensions[int(i)], precision, n_i))
            if verified:
                # Highest coverage among verified candidates wins.
                scored = []
                for features, precision, n_i in verified:
                    rule = self._rule_from_features(
                        features, per_feature, target_label, precision
                    )
                    rule.coverage = float(np.mean(rule.holds(coverage_rows)))
                    scored.append((rule.coverage, rule, precision, n_i))
                scored.sort(key=lambda t: -t[0])
                __, best_rule, precision, n_i = scored[0]
                best_stats = (precision, n_i)
                break
            # Remember the best unverified candidate as a fallback.
            i0 = int(top[0])
            if float(means[i0]) >= best_stats[0]:
                best_stats = (float(means[i0]), int(counts[i0]))
                best_rule = self._rule_from_features(
                    extensions[i0], per_feature, target_label,
                    float(means[i0]),
                )
                best_rule.coverage = float(
                    np.mean(best_rule.holds(coverage_rows))
                )
        if best_rule is None:
            best_rule = RuleExplanation(
                predicates=[], outcome=float(target_label),
                precision=0.0, coverage=1.0, method=self.method_name,
            )
        best_rule.meta["n_model_evaluations"] = n_evals
        best_rule.meta["beam_width"] = self.beam_width
        return best_rule

    def empirical_precision(self, rule: RuleExplanation, x: np.ndarray,
                            n: int = 2000, seed: int = 1) -> float:
        """Held-out precision estimate of a finished rule."""
        rng = np.random.default_rng(seed)
        x = np.asarray(x, dtype=float).ravel()
        features = {p.feature for p in rule.predicates}
        rows = self._sample_conditioned(x, features, n, rng)
        labels = (self.predict_fn(rows) >= 0.5).astype(int)
        return float(np.mean(labels == int(rule.outcome)))
