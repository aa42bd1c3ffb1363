"""The coalition-plan path: parity, budgets, validation, telemetry.

The sampling, kernel, QII and conditional SHAP explainers have one
evaluation path: a shared :class:`~repro.games.plan.CoalitionPlan`,
with ``explain(x)`` a batch of one on it (TreeSHAP's context is its
cached leaf-path table, :class:`~repro.shapley.tree.TreePrecompute`).
The contract under test —

* ``explain(x)`` is **bitwise** the per-walk oracle
  (``tests/oracles/coalition_walk.py``: ``permutation_shapley`` over the
  masking game or the conditional value function, ``shapley_qii``,
  ``kernel_shap``) for every family on logistic and GBM models, and
  ``explain_batch`` equals ``[explain(x) for x in X]`` bitwise on every
  execution backend;
* a deadline keeps the walks of the completed walk groups;
* under a ``GuardConfig(query_budget=b)`` sweep, sampling and
  conditional partial estimates (values, ``std_err``, convergence)
  equal the oracle's exactly; QII returns a partial within the budget;
  Kernel SHAP raises when its design does not fit;
* ``explain_batch`` validates rows before fusing: bad rows become
  ``BatchRowError(InputValidationError)`` without a fallback;
* the TreeSHAP kernel is bitwise stable across backends and batch
  splits, ``explain(x)`` is bitwise its row of ``explain_batch``, and
  both agree with the scalar recursion oracle to 1e-12;
* guard budgets give every row its own scope, and a mid-fuse failure
  degrades to the per-row loop while counting
  ``coalition.plan.fallbacks``;
* plan reuse and dedupe are observable: ``coalition.plan.built`` /
  ``.reused``, ``coalition.cache.hits`` / ``.misses`` and the batch
  span's ``amortized`` attribute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.coalition_engine import CoalitionEngine
from repro.robust import (
    BudgetExceededError,
    GuardConfig,
    InputValidationError,
    PartialBatchError,
)
from repro.shapley import (
    ConditionalShapExplainer,
    KernelShapExplainer,
    QIIExplainer,
    SamplingShapleyExplainer,
    TreeShapExplainer,
)
from tests.oracles.coalition_walk import ORACLES
from tests.oracles.tree_walk import tree_shap_explain

BACKENDS = ("serial", "thread", "process")
FAMILIES = ("sampling", "kernel", "qii", "conditional")
N_ROWS = 5


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.get_tracer().reset()
    yield
    obs.get_tracer().reset()


def make_explainer(family: str, model, data, guard=None):
    """A fresh, small-budget explainer (fresh plan store per call)."""
    if family == "sampling":
        return SamplingShapleyExplainer(
            model, data.X, n_permutations=8, max_background=20, seed=5,
            guard=guard,
        )
    if family == "kernel":
        return KernelShapExplainer(
            model, data.X, n_samples=40, max_background=20, seed=5,
            guard=guard,
        )
    if family == "qii":
        return QIIExplainer(
            model, data.X[:20], n_permutations=6, n_samples=8, seed=5,
            guard=guard,
        )
    if family == "conditional":
        return ConditionalShapExplainer(
            model, data.X[:60], k=8, n_permutations=6, seed=5, guard=guard
        )
    raise AssertionError(family)


def assert_same(att, ref):
    """Bitwise equality of everything an attribution reports."""
    assert np.array_equal(att.values, ref.values)
    assert att.base_value == ref.base_value
    assert att.prediction == ref.prediction
    if "std_err" in ref.meta:
        assert np.array_equal(att.meta["std_err"], ref.meta["std_err"])
    assert att.meta.get("convergence") == ref.meta.get("convergence")


@pytest.fixture(params=["logistic", "gbm"])
def model(request, loan_logistic, loan_gbm):
    return loan_logistic if request.param == "logistic" else loan_gbm


def _batch_span():
    spans = [s for s in obs.get_tracer().spans() if s.name == "explain_batch"]
    assert spans, "no explain_batch span recorded"
    return spans[-1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_amortized_batch_bitwise_parity(family, backend, loan_data,
                                        loan_logistic):
    """Shared-plan batches match the per-row loop bit for bit."""
    X = loan_data.X[:N_ROWS]
    reference = [
        make_explainer(family, loan_logistic, loan_data).explain(x)
        for x in X
    ]
    batch = make_explainer(family, loan_logistic, loan_data).explain_batch(
        X, backend=backend, n_procs=2
    )
    assert len(batch) == N_ROWS
    for ref, att in zip(reference, batch):
        assert_same(att, ref)
    assert _batch_span().attrs["amortized"] is True


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_gbm_batch_equals_explain(family, backend, loan_data, loan_gbm):
    """The same single-vs-batch identity on a tree ensemble."""
    X = loan_data.X[:3]
    explainer = make_explainer(family, loan_gbm, loan_data)
    batch = explainer.explain_batch(X, backend=backend, n_procs=2)
    for x, att in zip(X, batch):
        assert_same(att, explainer.explain(x))


# -- parity with the per-walk oracle -----------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_explain_matches_per_walk_oracle(family, model, loan_data):
    """explain(x) is bitwise the per-walk estimator it replaced."""
    for x in loan_data.X[:3]:
        att = make_explainer(family, model, loan_data).explain(x)
        ref = ORACLES[family](make_explainer(family, model, loan_data), x)
        assert_same(att, ref)


BUDGETS = (1, 50, 150, 200, 300, 400, 600, 800, 1000, 1500, 3000)


def _outcome(fn):
    try:
        return fn()
    except BudgetExceededError as e:
        return e


@pytest.mark.parametrize("family", ["sampling", "conditional"])
def test_budget_partials_match_oracle(family, model, loan_data):
    """Under a query budget the plan path returns the oracle's partial:
    the longest walk prefix that fits, bit for bit, same convergence
    record (including the budget error's message)."""
    x = loan_data.X[4]
    seen = set()
    for budget in BUDGETS:
        guard = GuardConfig(query_budget=budget)
        att = _outcome(
            lambda: make_explainer(family, model, loan_data, guard).explain(x)
        )
        ref = _outcome(lambda: ORACLES[family](
            make_explainer(family, model, loan_data, guard), x))
        if isinstance(ref, BudgetExceededError):
            assert isinstance(att, BudgetExceededError)
            seen.add("raise")
            continue
        assert_same(att, ref)
        convergence = att.meta["convergence"]
        seen.add("full" if convergence["converged"] else "partial")
        if not convergence["converged"]:
            assert 0 < convergence["n_walks_completed"] < \
                convergence["n_walks_requested"]
    assert seen == {"raise", "partial", "full"}


class _RowCounter:
    """A model wrapper that counts the rows it is asked to predict."""

    def __init__(self, model):
        self.model = model
        self.rows = 0

    def predict_proba(self, X):
        self.rows += np.atleast_2d(X).shape[0]
        return self.model.predict_proba(X)


def test_qii_budget_partial_stays_within_budget(model, loan_data):
    x = loan_data.X[4]
    partials = 0
    for budget in BUDGETS[2:]:
        counted = _RowCounter(model)
        explainer = make_explainer("qii", counted, loan_data,
                                   GuardConfig(query_budget=budget))
        convergence = explainer.explain(x).meta["convergence"]
        assert counted.rows <= budget
        if not convergence["converged"]:
            assert 0 < convergence["n_walks_completed"] < \
                convergence["n_walks_requested"]
            assert "budget" in convergence["budget_error"]
            partials += 1
    assert partials > 0


def test_kernel_budget_is_all_or_nothing(model, loan_data):
    """Kernel SHAP has no partial: a design that does not fit raises."""
    x = loan_data.X[4]
    with pytest.raises(BudgetExceededError):
        make_explainer("kernel", model, loan_data,
                       GuardConfig(query_budget=500)).explain(x)
    fits = GuardConfig(query_budget=10**6)
    assert_same(
        make_explainer("kernel", model, loan_data, fits).explain(x),
        ORACLES["kernel"](make_explainer("kernel", model, loan_data, fits), x),
    )


def test_kernel_single_feature_runs_the_plan_path(loan_data):
    """n == 1 is the closed form v(N) − v(∅) inside the single path."""
    weight = 3.0
    model = lambda X: np.atleast_2d(X)[:, 0] * weight
    background = loan_data.X[:30, :1]
    built = obs.counter("coalition.plan.built").value
    explainer = KernelShapExplainer(model, background, n_samples=16, seed=0)
    att = explainer.explain(loan_data.X[7, :1])
    assert obs.counter("coalition.plan.built").value == built + 1
    ref = ORACLES["kernel"](
        KernelShapExplainer(model, background, n_samples=16, seed=0),
        loan_data.X[7, :1],
    )
    assert_same(att, ref)
    assert np.isclose(att.base_value + att.values.sum(), att.prediction)


@pytest.mark.parametrize("family", ["sampling", "qii", "conditional"])
def test_deadline_keeps_completed_walk_groups(family, loan_data,
                                              loan_logistic):
    """A deadline cuts at a walk-group boundary, default chunking."""
    import time

    class Slow:
        def predict_proba(self, X):
            time.sleep(0.2)
            return loan_logistic.predict_proba(X)

    # Every predict call sleeps 0.2 s and the deadline is 0.9 s: the
    # calls starting at 0, 0.2, ..., 0.8 s run, the one at 1.0 s does
    # not. Walk groups go 1, 1, 2, 4, ... walks, one call per group.
    def build(n_permutations, guard):
        kwargs = {"sampling": dict(max_background=10),
                  "qii": dict(n_samples=8), "conditional": {}}[family]
        cls = {"sampling": SamplingShapleyExplainer, "qii": QIIExplainer,
               "conditional": ConditionalShapExplainer}[family]
        data = loan_data.X[:40] if family != "sampling" else loan_data.X
        return cls(Slow(), data, n_permutations=n_permutations, seed=5,
                   guard=guard, **kwargs)

    att = build(100, GuardConfig(deadline_s=0.9)).explain(loan_data.X[2])
    convergence = att.meta["convergence"]
    assert convergence["converged"] is False
    assert "deadline" in convergence["budget_error"]
    n_walks = convergence["n_walks_completed"]
    assert 0 < n_walks < convergence["n_walks_requested"]
    if n_walks % 2 == 0:
        # The completed walks are the first n_walks of the plan: the
        # same estimate as an unbounded run with that many walks.
        ref = build(n_walks, None).explain(loan_data.X[2])
        assert np.array_equal(att.values, ref.values)
        assert att.base_value == ref.base_value


# -- validation before fusing ------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_rejects_bad_rows_without_fallback(family, model, loan_data):
    explainer = make_explainer(family, model, loan_data)
    fallbacks = obs.counter("coalition.plan.fallbacks")
    before = fallbacks.value

    X = loan_data.X[:4].copy()
    X[1, 2] = np.nan
    results, errors = explainer.explain_batch(X, return_errors=True)
    assert [e.index for e in errors] == [1]
    assert isinstance(errors[0].error, InputValidationError)
    assert results[1] is None
    with pytest.raises(InputValidationError) as single:
        explainer.explain(X[1])
    assert str(errors[0].error) == str(single.value)
    for i in (0, 2, 3):
        assert_same(results[i], explainer.explain(X[i]))

    narrow = loan_data.X[:3, :-1]
    results, errors = explainer.explain_batch(narrow, return_errors=True)
    assert results == [None] * 3
    assert [e.index for e in errors] == [0, 1, 2]
    assert all(isinstance(e.error, InputValidationError) for e in errors)
    assert fallbacks.value == before


# -- telemetry ---------------------------------------------------------------


def test_plan_dedupe_counts_as_cache_traffic(loan_data, loan_logistic):
    """hits = logical walk evaluations − unique masks, misses = unique."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    hits, misses = (obs.counter("coalition.cache.hits"),
                    obs.counter("coalition.cache.misses"))
    h0, m0 = hits.value, misses.value
    explainer.explain_batch(loan_data.X[:3])
    plan = next(iter(explainer._plan_store.values()))
    logical = plan.n_walks * (plan.n_players + 1)
    assert misses.value - m0 == 3 * plan.n_unique
    assert hits.value - h0 == 3 * (logical - plan.n_unique)
    assert 0 < plan.n_unique < logical


def test_plan_counters_and_reuse(loan_data, loan_logistic):
    """One plan per (explainer, config); later batches ride the store."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    X = loan_data.X[:N_ROWS]
    built = obs.counter("coalition.plan.built")
    reused = obs.counter("coalition.plan.reused")

    b0, r0 = built.value, reused.value
    first = explainer.explain_batch(X)
    assert built.value - b0 == 1
    assert reused.value - r0 == N_ROWS - 1

    b1, r1 = built.value, reused.value
    second = explainer.explain_batch(X)
    assert built.value - b1 == 0
    assert reused.value - r1 == N_ROWS
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)


def test_guard_budgets_keep_per_row_loop(loan_data, loan_logistic):
    """Per-row deadline/query budgets give every row its own scope."""
    explainer = SamplingShapleyExplainer(
        loan_logistic, loan_data.X, n_permutations=8, max_background=20,
        seed=5, guard=GuardConfig(query_budget=10**9),
    )
    plain = make_explainer("sampling", loan_logistic, loan_data)
    X = loan_data.X[:3]
    guarded_atts = explainer.explain_batch(X)
    assert _batch_span().attrs["amortized"] is False
    for ref, att in zip(plain.explain_batch(X), guarded_atts):
        assert np.array_equal(ref.values, att.values)


def test_fused_failure_falls_back_and_counts(loan_data, loan_logistic):
    """A mid-fuse exception degrades to the loop + fallback counter."""

    class Exploding(SamplingShapleyExplainer):
        # Fails only when rows are fused: a batch of one (the per-row
        # loop's explain) still goes through.
        def _amortized_rows(self, X, lo, hi, ctx, **kwargs):
            if hi - lo > 1:
                raise RuntimeError("fused path down")
            return super()._amortized_rows(X, lo, hi, ctx, **kwargs)

    explainer = Exploding(
        loan_logistic, loan_data.X, n_permutations=8, max_background=20,
        seed=5,
    )
    X = loan_data.X[:3]
    fallbacks = obs.counter("coalition.plan.fallbacks").value
    batch = explainer.explain_batch(X)
    assert obs.counter("coalition.plan.fallbacks").value == fallbacks + 1
    assert _batch_span().attrs["amortized"] is False
    reference = make_explainer("sampling", loan_logistic, loan_data)
    for ref, att in zip((reference.explain(x) for x in X), batch):
        assert np.array_equal(ref.values, att.values)


def test_feature_names_ride_the_amortized_path(loan_data, loan_logistic):
    """``feature_names`` is the one kwarg the fused path serves."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    names = [f"f{i}" for i in range(loan_data.X.shape[1])]
    built = obs.counter("coalition.plan.built").value
    batch = explainer.explain_batch(loan_data.X[:2], feature_names=names)
    assert obs.counter("coalition.plan.built").value == built + 1
    assert _batch_span().attrs["amortized"] is True
    assert all(att.feature_names == names for att in batch)


def test_batch_value_matrix_matches_value_function(loan_data, loan_logistic):
    """The fused grid equals the per-row value function, bit for bit."""
    engine = CoalitionEngine(loan_data.X, max_background=15,
                             max_batch_rows=64)
    rng = np.random.default_rng(3)
    masks = rng.random((9, loan_data.X.shape[1])) < 0.5
    X = loan_data.X[:4]
    model_fn = lambda rows: loan_logistic.predict_proba(rows)[:, -1]
    matrix = engine.batch_value_matrix(model_fn, X, masks)
    assert matrix.shape == (4, 9)
    for r in range(4):
        vf = engine.value_function(model_fn, X[r], cache=False)
        assert np.array_equal(matrix[r], vf(masks))


class TestTreeBatch:
    def test_backend_bitwise_stability(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:16]
        explainer = TreeShapExplainer(loan_gbm)
        serial = explainer.explain_batch(X, backend="serial")
        values = np.stack([a.values for a in serial])
        for backend in ("thread", "process"):
            rerun = explainer.explain_batch(X, backend=backend, n_procs=2)
            assert np.array_equal(
                values, np.stack([a.values for a in rerun])
            )
        assert _batch_span().attrs["amortized"] is True

    def test_fused_agrees_with_scalar_recursion(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:8]
        explainer = TreeShapExplainer(loan_gbm)
        batch = explainer.explain_batch(X)
        for x, att in zip(X, batch):
            # explain(x) is a batch of one on the same kernel.
            single = explainer.explain(x)
            assert np.array_equal(att.values, single.values)
            assert att.base_value == single.base_value
            # The scalar recursion sums in another order: equal to 1e-12.
            phi, base = tree_shap_explain(loan_gbm, x)
            assert np.abs(att.values - phi).max() <= 1e-12
            assert abs(att.base_value - base) <= 1e-12

    @pytest.mark.parametrize("kind", ["short", "wide", "empty"])
    def test_bad_width_raises_the_model_error(self, kind, loan_split,
                                              loan_gbm):
        Xtr, __, __, __ = loan_split
        d = Xtr.shape[1]
        x = {"short": Xtr[0, :2], "wide": np.append(Xtr[0], 1.0),
             "empty": Xtr[0, :0]}[kind]
        # explain(x) is a batch of one: the shared row check rejects the
        # row before the model or the kernel sees it.
        width = ("x is empty" if kind == "empty"
                 else f"x has {x.shape[0]} features, expected {d}")
        explainer = TreeShapExplainer(loan_gbm)
        with pytest.raises(InputValidationError, match=width):
            explainer.explain(x)
        # The batch half follows the shared explain_batch contract: an
        # empty batch is rejected whole, wrong-width rows fail per row.
        if kind == "empty":
            with pytest.raises(InputValidationError,
                               match="needs a non-empty batch"):
                explainer.explain_batch(np.zeros((0, d)))
            return
        with pytest.raises(PartialBatchError) as info:
            explainer.explain_batch(np.stack([x, x]))
        errors = info.value.errors
        assert [e.index for e in errors] == [0, 1]
        for e in errors:
            assert isinstance(e.error, InputValidationError)
            assert f"has {x.shape[0]} features, expected {d}" in str(e.error)

    def test_shared_batch_contract(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:6].copy()
        X[2, 1] = np.nan  # trees route NaN: explained, not rejected
        explainer = TreeShapExplainer(loan_gbm)
        results, errors = explainer.explain_batch(X, return_errors=True)
        assert errors == []
        single = explainer.explain(X[2])
        assert np.array_equal(results[2].values, single.values)
        assert results[2].prediction == single.prediction
        assert results[2].base_value == single.base_value
        for backend in ("thread", "process"):
            rerun = explainer.explain_batch(X, backend=backend, n_procs=2)
            for a, b in zip(results, rerun):
                assert np.array_equal(a.values, b.values)
                assert a.base_value == b.base_value
                assert a.prediction == b.prediction
        results, errors = explainer.explain_batch(X[:, :-1],
                                                  return_errors=True)
        assert results == [None] * 6
        assert [type(e.error) for e in errors] == [InputValidationError] * 6

    def test_precompute_shared_across_instances(self, loan_gbm):
        a = TreeShapExplainer(loan_gbm)
        b = TreeShapExplainer(loan_gbm)
        assert a.precompute() is b.precompute()
        assert a.expected_value == b.precompute().expected_value

    def test_efficiency_of_fused_values(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:6]
        explainer = TreeShapExplainer(loan_gbm)
        for att in explainer.explain_batch(X):
            assert np.isclose(
                att.base_value + att.values.sum(), att.prediction,
                atol=1e-8,
            )
