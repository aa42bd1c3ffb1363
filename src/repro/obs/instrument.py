"""Span bookkeeping for explainer entry points.

:func:`traced_call` runs one ``explain`` / ``explain_batch`` call inside
a span, so every explanation reports ``{explainer, n_features, wall_ms,
model_evals, rows_evaluated}`` without any per-module code. It has one
caller: the entry-point wrapper that ``Explainer.__init_subclass__`` in
:mod:`repro.core.base` puts around each explainer's own ``explain`` /
``explain_batch`` (inside that explanation's guard scope). Every public
explainer derives from ``Explainer``, so that wrapper is the only
instrumentation path.
"""

from __future__ import annotations

from .ledger import record_run
from .metrics import counter, histogram
from .trace import current_span, enabled, span

__all__ = ["ENTRY_POINTS", "traced_call"]

ENTRY_POINTS = ("explain", "explain_batch")

# Latency histograms fed by top-level calls (dotted-lowercase names,
# see scripts/check_metric_names.py).
_WALL_HISTOGRAMS = {
    "explain": "explain.wall_ms",
    "explain_batch": "explain_batch.wall_ms",
}


def _instance_size(value) -> int | None:
    """Feature/row count of an explain argument, if it looks array-like."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        try:
            return int(shape[0]) if len(shape) == 1 else int(shape[-1])
        except (TypeError, ValueError, IndexError):
            # Exotic shape objects must not break instrumentation, but the
            # swallow stays visible instead of silent.
            counter("obs.internal_errors").inc()
            return None
    if isinstance(value, (list, tuple)):
        return len(value)
    return None


def traced_call(method_name: str, fn, explainer, args, kwargs):
    """``fn(explainer, *args, **kwargs)`` inside a ``method_name`` span."""
    if not enabled():
        return fn(explainer, *args, **kwargs)
    attrs = {"explainer": getattr(explainer, "method_name",
                                  type(explainer).__name__)}
    target = args[0] if args else kwargs.get("x", kwargs.get("X"))
    if method_name == "explain_batch" and target is not None:
        shape = getattr(target, "shape", None)
        if shape is not None:
            attrs["n_rows"] = int(shape[0]) if len(shape) > 1 else 1
        elif isinstance(target, (list, tuple)):
            attrs["n_rows"] = len(target)
    else:
        size = _instance_size(target)
        if size is not None:
            attrs["n_features"] = size
    # A per-row explain inside explain_batch is a sub-call, not a run:
    # only top-level entry points feed the latency histograms and the
    # run ledger (nesting under a user experiment span is still a run).
    outer = current_span()
    is_run = outer is None or outer.name not in ENTRY_POINTS
    sp = None
    try:
        with span(method_name, **attrs) as sp:
            result = fn(explainer, *args, **kwargs)
    except Exception as exc:
        if is_run and sp is not None:
            record_run(sp, explainer=explainer, error=exc)
        raise
    if is_run:
        wall_ms = getattr(sp, "wall_ms", None)
        if wall_ms is not None:
            histogram(_WALL_HISTOGRAMS[method_name]).observe(wall_ms)
        record_run(sp, explainer=explainer, result=result)
    return result
