"""Explainer base classes and the black-box model protocol.

The library is model-agnostic at its boundaries: explainers accept either a
plain callable ``f(X) -> outputs`` or any model from :mod:`repro.models`.
:func:`as_predict_fn` normalizes both to a single calling convention, and
chooses the probability of the positive class for classifiers so that every
attribution method explains a real-valued output in ``[0, 1]``.

Every normalized predict function carries two layers:

* the :mod:`repro.obs` model-eval meter — each invocation is counted
  (calls and batched rows) and attributed to the innermost open span,
  which is how ``explain()`` spans learn their model-query cost;
* the :mod:`repro.robust` guard, composed directly above the meter —
  output shape/finiteness validation, capped-exponential retry of
  transient failures, and per-explanation deadlines and model-query
  budgets (``REPRO_RETRIES`` / ``REPRO_BACKOFF`` / ``REPRO_DEADLINE_S``
  / ``REPRO_QUERY_BUDGET``). Pass ``guard=False`` to opt a predict
  function out, or a :class:`repro.robust.GuardConfig` to tune it.

Subclassing :class:`Explainer` auto-instruments ``explain`` /
``explain_batch`` with spans *and* wraps them in a fresh guard scope, so
budgets are per explanation (each row of a batch budgets independently,
including on the thread-pool path). ``explain_batch`` degrades
gracefully: per-row failures are captured, completed rows survive, and
the caller gets them back either via ``return_errors=True`` or on the
:class:`repro.robust.PartialBatchError` raised by default.
"""

from __future__ import annotations

import contextvars
import functools
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..exec import map_shards, plan_shards, resolve_backend, resolve_n_procs
from ..obs import metrics
from ..obs.instrument import ENTRY_POINTS, traced_call
from ..obs.metrics import meter_predict_fn
from ..obs.trace import current_span
from ..robust.errors import BatchRowError, InputValidationError, PartialBatchError
from ..robust.guard import (
    GuardConfig,
    check_instance,
    guard_predict_fn,
    guard_scope,
    resolve_deadline_s,
    resolve_query_budget,
)
from .explanation import FeatureAttribution

__all__ = [
    "as_predict_fn",
    "Explainer",
    "AttributionExplainer",
    "PlanExplainer",
]

_ROWS_FAILED = "robust.rows_failed"
_PLAN_FALLBACKS = "coalition.plan.fallbacks"


def _budgets_configured(guard) -> bool:
    """Whether a guard deadline or model-query budget is in force.

    A fused batch evaluates many rows inside one guard scope, which
    would silently convert per-*row* budgets into a per-*batch* budget;
    with an active deadline or query budget ``explain_batch`` therefore
    opens one scope per row, each row a batch of one on the same plan
    path, whose scope-per-row semantics the robust tests pin down.
    """
    cfg = guard if isinstance(guard, GuardConfig) else None
    return (
        resolve_deadline_s(cfg.deadline_s if cfg else None) is not None
        or resolve_query_budget(cfg.query_budget if cfg else None) is not None
    )


PredictFn = Callable[[np.ndarray], np.ndarray]


def as_predict_fn(model, output: str = "auto",
                  guard: GuardConfig | None | bool = None) -> PredictFn:
    """Normalize a model or callable to ``f(X) -> 1-D float array``.

    Parameters
    ----------
    model:
        A callable, or an object exposing ``predict_proba`` / ``predict``.
    output:
        * ``"auto"`` — ``predict_proba[:, 1]`` when available, else
          ``predict``;
        * ``"proba"`` — require ``predict_proba[:, 1]``;
        * ``"label"`` — hard ``predict`` labels;
        * ``"raw"`` — require ``decision_function`` / raw margin.
    guard:
        ``None`` (default) installs the :mod:`repro.robust` guard with
        environment-driven settings; a :class:`GuardConfig` tunes it;
        ``False`` skips guarding (meter only).

    The returned function is wrapped with the :mod:`repro.obs` model-eval
    meter and the robust guard (both idempotently — re-normalizing a
    metered or guarded function does not double-count or double-guard).
    """
    if getattr(model, "__repro_guarded__", False):
        return model
    if getattr(model, "__repro_metered__", False):
        return guard_predict_fn(model, guard)

    if callable(model) and not hasattr(model, "predict"):
        fn = lambda X: np.asarray(model(np.atleast_2d(X)), dtype=float).ravel()
    elif output == "label":
        fn = lambda X: np.asarray(
            model.predict(np.atleast_2d(X)), dtype=float
        ).ravel()
    elif output == "raw":
        if not hasattr(model, "decision_function"):
            raise TypeError(f"{type(model).__name__} has no decision_function")
        fn = lambda X: np.asarray(
            model.decision_function(np.atleast_2d(X)), dtype=float
        ).ravel()
    elif hasattr(model, "predict_proba") and output in ("auto", "proba"):
        def fn(X: np.ndarray) -> np.ndarray:
            p = np.asarray(model.predict_proba(np.atleast_2d(X)), dtype=float)
            return p[:, 1] if p.ndim == 2 else p.ravel()
    elif output == "proba":
        raise TypeError(f"{type(model).__name__} has no predict_proba")
    else:
        fn = lambda X: np.asarray(
            model.predict(np.atleast_2d(X)), dtype=float
        ).ravel()
    wrapped = guard_predict_fn(meter_predict_fn(fn), guard)
    # Rebuild recipe for pickle-free transport: the spawn backend and the
    # persist layer reconstruct an equivalent predict function from the
    # underlying model rather than pickling the closure stack.
    wrapped.__repro_spec__ = {"model": model, "output": output, "guard": guard}
    return wrapped


def _entry_point(name: str, fn):
    """The one wrapper around an explainer's own ``explain``/``explain_batch``.

    A fresh per-explanation guard scope outside, the call's span
    (:func:`repro.obs.instrument.traced_call`) inside it.
    """

    @functools.wraps(fn)
    def wrapped(self, *args, **kwargs):
        with guard_scope(getattr(self, "guard_config", None)):
            return traced_call(name, fn, self, args, kwargs)

    wrapped.__repro_entry_point__ = True
    return wrapped


class Explainer(ABC):
    """Common base: wraps a model into a normalized prediction function.

    Subclasses are automatically instrumented: their own ``explain`` /
    ``explain_batch`` definitions are wrapped in a
    :func:`repro.robust.guard_scope`, so deadlines and query budgets
    reset per explanation, and inside it in a :mod:`repro.obs` span
    carrying the explainer name, input width, wall time and model-eval
    counters. A method that is already wrapped (inherited, or re-bound
    from a parent class) is not wrapped again.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in ENTRY_POINTS:
            fn = cls.__dict__.get(name)
            if (
                fn is None
                or getattr(fn, "__repro_entry_point__", False)
                or getattr(fn, "__isabstractmethod__", False)
                or isinstance(fn, (staticmethod, classmethod))
            ):
                continue
            setattr(cls, name, _entry_point(name, fn))

    def __init__(self, model, output: str = "auto",
                 guard: GuardConfig | None | bool = None) -> None:
        self.model = model
        self.guard_config = guard
        self.predict_fn = as_predict_fn(model, output, guard=guard)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The normalized model output being explained."""
        return self.predict_fn(X)


class AttributionExplainer(Explainer):
    """Base for explainers that return :class:`FeatureAttribution`.

    ``explain_batch`` runs ``explain`` per row unless the subclass has a
    fused batch path, which it opts into by providing:

    * ``n_features`` — the width every explained row must have;
    * ``_amortized_context(X, feature_names=None)`` — the
      row-independent context (a coalition plan, a tree precompute),
      built once per batch, parent-side;
    * ``_amortized_rows(X, lo, hi, ctx, feature_names=None)`` — the
      attributions of rows ``[lo, hi)`` against that context.

    Rows of the wrong width, and rows with non-finite entries unless the
    class sets ``accepts_nan``, fail input validation before the fused
    call and never reach it.
    """

    method_name = "attribution"
    # Tree explainers set this: trees route NaN (and compare ±inf) like
    # any other value, so only the width is checked per row.
    accepts_nan = False

    @abstractmethod
    def explain(self, x: np.ndarray, **kwargs) -> FeatureAttribution:
        """Explain the model output at a single instance ``x``."""

    def explain_batch(
        self,
        X: np.ndarray,
        return_errors: bool = False,
        backend: str | None = None,
        n_procs: int | None = None,
        **kwargs,
    ) -> list[FeatureAttribution] | tuple[list, list[BatchRowError]]:
        """Explain every row of ``X``, surviving per-row failures.

        ``backend`` (or env ``REPRO_BACKEND``; default serial; see
        :mod:`repro.exec`) selects the execution backend and ``n_procs``
        its worker count. ``"thread"`` runs rows on a
        ``concurrent.futures`` thread pool, each under a copy of the
        submitting context, so per-instance ``explain`` spans keep the
        batch span as parent, eval counters roll up exactly as in the
        serial path, and each row gets its own guard scope.
        ``"process"`` shards contiguous row ranges across forked
        workers. Worker rows re-raise per-row failures through the same
        :class:`BatchRowError` channel (a dead worker fails its shard's
        rows, never hangs the batch), worker spans re-parent under this
        call's batch span, and worker-side ``model.*`` / ``robust.*``
        counters merge into the parent snapshot on join. Results are
        returned in row order whichever backend runs them.

        Failure semantics (serial and parallel paths behave identically):
        one poisoned row no longer discards the completed ones. With
        ``return_errors=True`` the call returns ``(results, errors)`` —
        ``results`` has ``None`` at failed positions, ``errors`` is a
        list of :class:`repro.robust.BatchRowError` records. With the
        default ``return_errors=False`` a clean batch returns the plain
        result list, and any failure raises
        :class:`repro.robust.PartialBatchError` carrying the same
        partial results. Failed rows increment ``robust.rows_failed``.

        Amortization: subclasses with a fused path (the
        :class:`PlanExplainer` families on a shared
        :class:`repro.games.plan.CoalitionPlan`, TreeSHAP on its
        shared precompute) serve the valid rows of the batch from it —
        see :meth:`_try_amortized`; every other explainer runs the
        per-row loop (``amortized=False`` on the batch span).
        """
        try:
            X = np.atleast_2d(np.asarray(X, dtype=float))
        except (TypeError, ValueError) as e:
            raise InputValidationError(
                f"X is not convertible to a float matrix: {e}"
            ) from e
        if X.size == 0:
            raise InputValidationError(
                f"explain_batch needs a non-empty batch, got shape {X.shape}"
            )
        backend_name = resolve_backend(backend)
        fused = self._try_amortized(X, backend_name, n_procs, kwargs)
        if fused is not None:
            results, errors = fused
        else:
            results, errors = self._run_loop(X, backend_name, n_procs,
                                             kwargs)
        if errors:
            metrics.counter(_ROWS_FAILED).inc(len(errors))
        if return_errors:
            return results, errors
        if errors:
            raise PartialBatchError(partial=results, errors=errors)
        return results

    def _run_loop(self, X, backend_name, n_procs, kwargs):
        """``explain`` per row; returns ``(results, errors)``."""

        def run_row(i: int, x: np.ndarray):
            try:
                return self.explain(x, **kwargs), None
            except Exception as e:
                return None, BatchRowError(index=i, error=e)

        workers = 1 if backend_name == "serial" else resolve_n_procs(n_procs)
        if backend_name in ("process", "spawn") and X.shape[0] >= 2:
            outcomes = self._run_batch_process(
                X, run_row, n_procs, backend=backend_name
            )
        elif workers == 1 or X.shape[0] <= 1:
            outcomes = [run_row(i, x) for i, x in enumerate(X)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(contextvars.copy_context().run, run_row, i, x)
                    for i, x in enumerate(X)
                ]
                outcomes = [f.result() for f in futures]
        results = [res for res, __ in outcomes]
        errors = [err for __, err in outcomes if err is not None]
        return results, errors

    def _invalid_rows(self, X: np.ndarray) -> list[BatchRowError]:
        """One :class:`BatchRowError` per row ``explain`` would reject.

        The same width/finiteness contract (and message) as
        :func:`repro.robust.check_instance`, checked vectorized first so
        a clean batch costs one ``isfinite`` pass (none when the class
        ``accepts_nan``; a wrong width fails before finiteness is read).
        """
        if X.shape[1] != self.n_features:
            bad = range(X.shape[0])
        elif self.accepts_nan:
            return []
        else:
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        errors = []
        for i in bad:
            try:
                check_instance(X[i], self.n_features)
            except InputValidationError as e:
                errors.append(BatchRowError(index=int(i), error=e))
        return errors

    def _try_amortized(self, X, backend_name, n_procs, kwargs):
        """Fuse the batch's valid rows into one shared context.

        Returns ``(results, errors)``, or ``None`` to run the per-row
        loop when :meth:`_can_fuse` says no. Rows that fail input
        validation become ``BatchRowError(InputValidationError)``
        records up front — they never reach (or spoil) the fused call. A
        failure inside the fused call counts a
        ``coalition.plan.fallbacks`` and falls back to the loop, which
        isolates the failing rows. The batch span's ``amortized``
        attribute records which path ran.
        """
        outcome = None
        if self._can_fuse(kwargs):
            errors = self._invalid_rows(X)
            bad = {e.index for e in errors}
            valid = [i for i in range(X.shape[0]) if i not in bad]
            results = [None] * X.shape[0]
            try:
                if valid:
                    fused = self._run_amortized(
                        X[valid], backend_name, n_procs, **kwargs
                    )
                    for i, attribution in zip(valid, fused):
                        results[i] = attribution
                outcome = (results, errors)
            except Exception:
                metrics.counter(_PLAN_FALLBACKS).inc()
        sp = current_span()
        if sp is not None:
            sp.set_attr("amortized", outcome is not None)
        return outcome

    def _can_fuse(self, kwargs) -> bool:
        """Whether this batch takes the fused path: the class has one,
        and no ``explain`` kwargs beyond ``feature_names`` are passed."""
        return (hasattr(self, "_amortized_rows")
                and set(kwargs) <= {"feature_names"})

    def _run_amortized(self, X, backend_name, n_procs, **kwargs):
        """Fused batch execution: one context, row-sharded evaluation.

        ``_amortized_context`` builds everything row-independent (the
        coalition plan, the tree precompute) parent-side exactly once;
        ``_amortized_rows`` then evaluates a contiguous row range
        against it. On the process backend the context ships to forked
        workers via copy-on-write memory — once per worker, not per
        shard — and the thread backend shares it in-process.
        """
        ctx = self._amortized_context(X, **kwargs)
        n_rows = X.shape[0]
        workers = 1 if backend_name == "serial" else resolve_n_procs(n_procs)
        if workers < 2:
            return self._amortized_rows(X, 0, n_rows, ctx, **kwargs)
        plan = plan_shards(n_rows, workers)
        if plan.n_shards < 2:
            return self._amortized_rows(X, 0, n_rows, ctx, **kwargs)

        def run_shard(bounds):
            lo, hi = bounds
            return self._amortized_rows(X, lo, hi, ctx, **kwargs)

        outcomes = map_shards(
            run_shard, list(plan.slices), backend=backend_name,
            n_procs=workers, split_scope=False,
        )
        results = []
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            results.extend(outcome.value)
        return results

    def _run_batch_process(self, X, run_row, n_procs, backend="process"):
        """Row-sharded ``explain_batch`` over worker processes.

        Each shard is a contiguous row range; workers ship back, per
        row, either the explanation or a JSON-safe error record (live
        exception objects do not reliably cross the pickle boundary).
        ``split_scope=False`` because budgets here are per *row*, not
        per batch: each ``explain`` call opens its own guard scope in
        the worker exactly as it does serially. Under ``spawn`` the
        row closure cannot pickle, so :func:`repro.exec.map_shards`
        degrades it to the thread pool — same results, shared memory.
        """
        plan = plan_shards(X.shape[0], resolve_n_procs(n_procs))

        def run_shard(bounds):
            lo, hi = bounds
            out = []
            for i in range(lo, hi):
                res, err = run_row(i, X[i])
                out.append((res, None if err is None else err.to_dict()))
            return out

        shard_args = list(plan.slices)
        shard_outcomes = map_shards(
            run_shard, shard_args, backend=backend,
            n_procs=n_procs, split_scope=False,
        )
        outcomes = []
        for (lo, hi), outcome in zip(shard_args, shard_outcomes):
            if not outcome.ok:
                # The whole shard died (worker crash / broken pool):
                # every row in it is reported failed, rows elsewhere
                # survive — same contract as a poisoned row.
                outcomes.extend(
                    (None, BatchRowError(index=i, error=outcome.error))
                    for i in range(lo, hi)
                )
                continue
            for res, err in outcome.value:
                if err is None:
                    outcomes.append((res, None))
                else:
                    exc = type(err["error_type"], (Exception,), {})(
                        err["message"]
                    )
                    outcomes.append(
                        (None, BatchRowError(index=err["index"], error=exc))
                    )
        return outcomes


class PlanExplainer(AttributionExplainer):
    """Base of the coalition-plan families: sampling, kernel, QII and
    conditional SHAP.

    These explainers have exactly one evaluation path. A
    :class:`repro.games.plan.CoalitionPlan` holds everything that does
    not depend on the explained row (the seeded walks or Kernel SHAP
    design, deduplicated), and ``_amortized_rows`` evaluates a
    contiguous row range against it with fused model calls.
    ``explain(x)`` is a batch of one on that path; ``explain_batch``
    fuses every valid row of the batch into it.

    Subclasses provide the fused-path hooks of
    :class:`AttributionExplainer`: ``_amortized_context`` builds the
    plan through :func:`repro.games.plan.shared_plan`, and under a
    guard budget (one row at a time, see :func:`_budgets_configured`)
    ``_amortized_rows`` returns the partial estimate
    :func:`repro.games.plan.plan_values` allows.
    """

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        """Explain one instance: a batch of one on the coalition plan."""
        X = check_instance(x, self.n_features)[None, :]
        ctx = self._amortized_context(X, feature_names=feature_names)
        return self._amortized_rows(X, 0, 1, ctx,
                                    feature_names=feature_names)[0]

    def _can_fuse(self, kwargs) -> bool:
        """Not under a guard deadline or query budget: the plan spends
        guarded model queries, so each row then gets its own scope
        through the per-row loop (see :func:`_budgets_configured`)."""
        return (super()._can_fuse(kwargs)
                and not _budgets_configured(self.guard_config))
