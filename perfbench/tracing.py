"""The traced run: spans recorded around each layer's public entry points.

Nothing here edits the program. :func:`install` wraps public methods of
the ``serve``, ``core``/``shapley``/``surrogate``, ``core.coalition_engine``
and ``models`` layers with timing shims that append :class:`Span`
records to a :class:`Recorder`, and returns a callable that puts every
original back. With tracing off the shims are never installed, so the
untraced run measures the program exactly as shipped (its own ``obs``
telemetry stays at its default, on).

Span names:

``serve.handle``    ``ExplainServer.handle_explain`` (key: endpoint)
``serve.compute``   ``Endpoint.explain`` (key: endpoint)
``serve.admit``     entering ``AdmissionController.admit`` (the wait)
``explain``         outermost ``explain``/``explain_batch`` of an
                    explainer (key: ``(method, model)``, rows explained)
``coalition.v``     a value-function call or a fused
                    ``batch_value_matrix`` (rows: coalitions)
``predict``         outermost ``predict_proba``/``decision_function``
                    (key: model family, rows: rows predicted)
``treeshap``        ``TreeShapExplainer.explain_batch`` (key: model)
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

from stats import union_length

_MODEL_NAMES = {
    "LogisticRegression": "logistic",
    "GradientBoostingClassifier": "gbm",
    "RandomForestClassifier": "rf",
}


def model_name(model) -> str:
    return _MODEL_NAMES.get(type(model).__name__, type(model).__name__)


class Span:
    __slots__ = ("sid", "parent", "name", "key", "rows", "t0", "t1")

    def __init__(self, sid, parent, name, key, rows, t0) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.key = key
        self.rows = rows
        self.t0 = t0
        self.t1 = t0


class Recorder:
    """In-memory span sink; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        found = getattr(self._local, "stack", None)
        if found is None:
            found = self._local.stack = []
        return found

    def call(self, name, key, rows, fn, args, kwargs, outermost=False):
        stack = self.stack()
        if outermost and any(s.name == name for s in stack):
            return fn(*args, **kwargs)
        parent = stack[-1].sid if stack else 0
        span = Span(next(self._ids), parent, name, key, rows,
                    time.perf_counter())
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def record(self, name, key, t0, t1, rows=0) -> None:
        """A finished span measured by the caller (no children)."""
        stack = self.stack()
        span = Span(next(self._ids), stack[-1].sid if stack else 0,
                    name, key, rows, t0)
        span.t1 = t1
        self.spans.append(span)


class _Patches:
    def __init__(self) -> None:
        self._undo = []

    def wrap(self, cls, attr, make):
        had_own = attr in cls.__dict__
        original = cls.__dict__[attr] if had_own else None
        setattr(cls, attr, make(getattr(cls, attr)))
        self._undo.append((cls, attr, had_own, original))

    def undo(self) -> None:
        for cls, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._undo.clear()


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def install(rec: Recorder):
    """Wrap every layer's entry points; returns the undo callable."""
    from repro.core.coalition_engine import CoalitionEngine
    from repro.models import (GradientBoostingClassifier,
                              LogisticRegression, RandomForestClassifier)
    from repro.serve import AdmissionController, Endpoint, ExplainServer
    from repro.shapley import (KernelShapExplainer,
                               SamplingShapleyExplainer, TreeShapExplainer)
    from repro.surrogate import LimeTabularExplainer

    patches = _Patches()

    def handle(fn):
        @functools.wraps(fn)
        def traced(self, body):
            key = body.get("model") if isinstance(body, dict) else None
            return rec.call("serve.handle", key, 1, fn, (self, body), {})
        return traced

    def compute(fn):
        @functools.wraps(fn)
        def traced(self, tier, params, x):
            return rec.call("serve.compute", self.name, 1, fn,
                            (self, tier, params, x), {})
        return traced

    def admit(fn):
        @functools.wraps(fn)
        def traced(self, timeout_s):
            return _TimedEnter(rec, fn(self, timeout_s))
        return traced

    patches.wrap(ExplainServer, "handle_explain", handle)
    patches.wrap(Endpoint, "explain", compute)
    patches.wrap(AdmissionController, "admit", admit)

    def explain(fn, batch):
        @functools.wraps(fn)
        def traced(self, X, *args, **kwargs):
            key = (self.method_name, model_name(self.model))
            rows = _rows(X) if batch else 1
            return rec.call("explain", key, rows, fn, (self, X) + args,
                            kwargs, outermost=True)
        return traced

    for cls in (SamplingShapleyExplainer, KernelShapExplainer,
                LimeTabularExplainer):
        patches.wrap(cls, "explain", lambda fn: explain(fn, False))
        patches.wrap(cls, "explain_batch", lambda fn: explain(fn, True))

    def treeshap(fn):
        @functools.wraps(fn)
        def traced(self, X, *args, **kwargs):
            return rec.call("treeshap", model_name(self.model), _rows(X),
                            fn, (self, X) + args, kwargs)
        return traced

    patches.wrap(TreeShapExplainer, "explain_batch", treeshap)

    def value_function(fn):
        @functools.wraps(fn)
        def traced(self, *args, **kwargs):
            v = fn(self, *args, **kwargs)

            @functools.wraps(v)
            def traced_v(coalitions, *a, **kw):
                return rec.call("coalition.v", None, _rows(coalitions), v,
                                (coalitions,) + a, kw)
            return traced_v
        return traced

    def batch_value_matrix(fn):
        @functools.wraps(fn)
        def traced(self, model_fn, X, coalitions):
            return rec.call("coalition.v", None,
                            _rows(X) * _rows(coalitions), fn,
                            (self, model_fn, X, coalitions), {})
        return traced

    patches.wrap(CoalitionEngine, "value_function", value_function)
    patches.wrap(CoalitionEngine, "batch_value_matrix", batch_value_matrix)

    def predict(fn, name):
        @functools.wraps(fn)
        def traced(self, X, *args, **kwargs):
            return rec.call("predict", name, _rows(X), fn,
                            (self, X) + args, kwargs, outermost=True)
        return traced

    for cls in (LogisticRegression, GradientBoostingClassifier,
                RandomForestClassifier):
        name = _MODEL_NAMES[cls.__name__]
        for attr in ("predict_proba", "decision_function"):
            if hasattr(cls, attr):
                patches.wrap(cls, attr,
                             lambda fn, name=name: predict(fn, name))
    return patches.undo


class _TimedEnter:
    """Context-manager proxy recording how long ``__enter__`` blocked."""

    def __init__(self, rec: Recorder, cm) -> None:
        self._rec = rec
        self._cm = cm

    def __enter__(self):
        t0 = time.perf_counter()
        try:
            return self._cm.__enter__()
        finally:
            self._rec.record("serve.admit", None, t0, time.perf_counter())

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


# -- analysis -----------------------------------------------------------------


class Analysis:
    """Span tree views: children and predict coverage per span."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        self.predict_cover: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)
        for s in spans:
            if s.name != "predict":
                continue
            parent = self.by_id.get(s.parent)
            while parent is not None:
                self.predict_cover.setdefault(parent.sid, []).append(
                    (s.t0, s.t1))
                parent = self.by_id.get(parent.parent)

    def named(self, name: str, key=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (key is None or s.key == key)]

    def inside_predict(self, span: Span) -> float:
        """Seconds of ``span`` covered by predict calls below it."""
        return union_length(self.predict_cover.get(span.sid, ()),
                            span.t0, span.t1)


def ancestor(an: Analysis, span: Span, name: str) -> Span | None:
    parent = an.by_id.get(span.parent)
    while parent is not None and parent.name != name:
        parent = an.by_id.get(parent.parent)
    return parent


COUNTERS = (
    "coalition.cache.hits", "coalition.cache.misses",
    "coalition.plan.reused", "coalition.plan.fallbacks",
    "robust.retries", "robust.rows_failed", "robust.budget_exhausted",
)
_SHAP_FAMILY = ("sampling_shap", "kernel_shap")


def explain_layer_metrics(an: Analysis, counters: dict) -> dict:
    """``core``/``shapley``/``surrogate``, ``coalition``, ``models``,
    ``shapley.tree`` and ``robust`` per-layer metrics of one traced
    window (``counters`` holds the program's counter deltas)."""
    out: dict = {}
    explains = an.named("explain")
    cells: dict = {}
    for s in explains:
        inside = an.inside_predict(s)
        cell = cells.setdefault(s.key, [0.0, 0.0])
        cell[0] += (s.t1 - s.t0) - inside
        cell[1] += inside
    for (method, model), (outside, inside) in sorted(cells.items()):
        if inside > 0:
            out[f"explain.overhead_ratio.{method}.{model}"] = (
                outside / inside, "ratio")

    shap_rows = sum(s.rows for s in explains if s.key[0] in _SHAP_FAMILY)
    v_spans = an.named("coalition.v")
    if shap_rows:
        out["explain.v_calls_per_row"] = (len(v_spans) / shap_rows, "count")
        v_self = sum((s.t1 - s.t0) - an.inside_predict(s) for s in v_spans)
        out["coalition.eval_self_us_per_row"] = (
            v_self / shap_rows * 1e6, "us")
        out["coalition.plan.reused_ratio"] = (
            counters["coalition.plan.reused"] / shap_rows, "ratio")
    looked_up = (counters["coalition.cache.hits"]
                 + counters["coalition.cache.misses"])
    out["coalition.dedupe_ratio"] = (
        counters["coalition.cache.hits"] / looked_up if looked_up else 0.0,
        "ratio")
    out["coalition.plan.fallbacks"] = (
        counters["coalition.plan.fallbacks"], "count")

    predict_time: dict = {}
    predict_rows: dict = {}
    rows_under_explain: dict = {}
    calls_under_explain = 0
    for s in an.named("predict"):
        predict_time[s.key] = predict_time.get(s.key, 0.0) + (s.t1 - s.t0)
        predict_rows[s.key] = predict_rows.get(s.key, 0) + s.rows
        if ancestor(an, s, "explain") is not None:
            rows_under_explain[s.key] = (rows_under_explain.get(s.key, 0)
                                         + s.rows)
            calls_under_explain += 1
    explained_rows: dict = {}
    for s in explains:
        explained_rows[s.key[1]] = explained_rows.get(s.key[1], 0) + s.rows
    for model, seconds in sorted(predict_time.items()):
        out[f"models.predict_us_per_row.{model}"] = (
            seconds / predict_rows[model] * 1e6, "us")
    for model, rows in sorted(explained_rows.items()):
        out[f"models.rows_per_explain.{model}"] = (
            rows_under_explain.get(model, 0) / rows, "count")
    total_rows = sum(explained_rows.values())
    if total_rows:
        out["models.calls_per_explain"] = (
            calls_under_explain / total_rows, "count")
    explain_time = sum(s.t1 - s.t0 for s in explains)
    if explain_time > 0:
        out["models.predict_share"] = (
            sum(an.inside_predict(s) for s in explains) / explain_time,
            "ratio")

    tree_time: dict = {}
    tree_rows: dict = {}
    for s in an.named("treeshap"):
        tree_time[s.key] = tree_time.get(s.key, 0.0) + (s.t1 - s.t0)
        tree_rows[s.key] = tree_rows.get(s.key, 0) + s.rows
    for model, seconds in sorted(tree_time.items()):
        out[f"treeshap.us_per_row.{model}"] = (
            seconds / tree_rows[model] * 1e6, "us")

    for name in ("robust.retries", "robust.rows_failed",
                 "robust.budget_exhausted"):
        out[name] = (counters[name], "count")
    return out
