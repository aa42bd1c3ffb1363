"""LIME for text classifiers (§2.4): word-level attributions.

Text LIME perturbs a document by *removing* random subsets of its words,
queries the classifier on each perturbed document, and fits the same
weighted sparse linear surrogate as tabular LIME on the word-presence
indicators. The classifier is any callable mapping a list of strings to
scores, so it composes with :mod:`repro.unstructured.text`'s bag-of-words
pipeline or any user model.
"""

from __future__ import annotations

import numpy as np

from ..core.base import Explainer
from ..core.explanation import FeatureAttribution
from ..obs import record_model_eval
from ..robust.guard import guard_predict_fn
from .lime import forward_select, weighted_ridge

__all__ = ["LimeTextExplainer"]


class LimeTextExplainer(Explainer):
    """Word-attribution LIME.

    Parameters
    ----------
    predict_fn:
        Callable mapping a list of document strings to a 1-D score array.
    n_samples:
        Number of perturbed documents.
    kernel_width:
        Proximity kernel width on cosine-like distance (fraction of words
        removed).
    n_select:
        Words kept in the sparse surrogate (``None`` keeps all).
    """

    method_name = "lime_text"

    def __init__(
        self,
        predict_fn,
        n_samples: int = 500,
        kernel_width: float = 0.25,
        n_select: int | None = 10,
        alpha: float = 1.0,
        seed: int = 0,
    ) -> None:
        # No super().__init__: the model consumes document lists, not
        # feature rows, so it keeps its own predict function — guarded
        # like every other, so per-explanation budgets bind.
        self.predict_fn = guard_predict_fn(predict_fn)
        self.n_samples = n_samples
        self.kernel_width = kernel_width
        self.n_select = n_select
        self.alpha = alpha
        self.seed = seed

    def explain(self, document: str, seed: int | None = None) -> FeatureAttribution:
        words = document.split()
        if not words:
            raise ValueError("cannot explain an empty document")
        # Attribute at the level of *distinct* words; removing a word
        # removes all its occurrences, matching the reference explainer.
        vocabulary = sorted(set(words))
        d = len(vocabulary)
        index = {w: i for i, w in enumerate(vocabulary)}
        rng = np.random.default_rng(self.seed if seed is None else seed)
        B = (rng.random((self.n_samples, d)) < 0.5).astype(float)
        B[0, :] = 1.0  # the original document
        docs = []
        for row in B:
            kept = {vocabulary[i] for i in range(d) if row[i] == 1.0}
            docs.append(" ".join(w for w in words if w in kept))
        y = np.asarray(self.predict_fn(docs), dtype=float).ravel()
        # Text models bypass as_predict_fn (they consume document lists,
        # not feature rows), so the eval meter is applied at the call site.
        record_model_eval(rows=len(docs))
        removed_fraction = 1.0 - B.mean(axis=1)
        weights = np.exp(-(removed_fraction ** 2) / self.kernel_width ** 2)
        if self.n_select is not None and self.n_select < d:
            active = forward_select(B, y, weights, self.n_select, self.alpha)
        else:
            active = list(range(d))
        coef_active, intercept = weighted_ridge(B[:, active], y, weights, self.alpha)
        coef = np.zeros(d)
        coef[active] = coef_active
        return FeatureAttribution(
            values=coef,
            feature_names=vocabulary,
            base_value=intercept,
            prediction=float(y[0]),
            method=self.method_name,
            meta={"n_samples": self.n_samples, "word_index": index},
        )
