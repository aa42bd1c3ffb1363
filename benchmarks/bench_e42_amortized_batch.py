"""E42 — Amortized batch explanation vs the per-row loop (PR 7).

Claim: when a batch of instances is explained together, the work that
does not depend on the row — coalition sampling, permutation draws,
kernel weights, TreeSHAP tree decompositions — should be paid once per
batch, not once per row. The shared :class:`repro.games.plan.CoalitionPlan`
plus the fused ``batch_value_matrix`` grid make batch sampling-SHAP ≥5×
faster than the per-walk loop at an equal walk budget, and the cached
leaf-path table :class:`repro.shapley.tree.TreePrecompute` plus its
vectorized kernel make batch TreeSHAP ≥10× faster than the per-instance
recursion every row used to pay, kept as the oracle
``tests/oracles/tree_walk.py``.
The per-walk reference is the loop single-row ``explain`` used to run —
one cached value-function call per permutation walk — kept as the
oracle ``tests/oracles/coalition_walk.py``. Since ``explain(x)`` became
a batch of one on the same plan, the table also reports it against that
oracle (the ``sampling_single_speedup`` floor). Sampling attributions
are bitwise-identical to the per-walk oracle under the same seed; the
tree kernel is bitwise stable across backends and batch splits and
agrees with the scalar recursion to 1e-12 (it sums in another order).

The table reports the precompute/plan build cost separately from the
per-instance explain cost, so the amortization structure (fixed cost
once, marginal cost per row) is visible rather than folded into one
number.

``test_e42_tree_predict`` times the model queries those explainers pay:
GBM 25×d3 and RF 20×d6 predicting 4,501 rows (one sampling-SHAP or LIME
explain's worth) through the stacked level-synchronous descent, against
the per-row list-walk oracle in ``tests/oracles/tree_walk.py``. Outputs
must be bitwise-equal; the slower family's speedup is the headline. It
records its own summary entry (``E42_tree_predict``), so the guarded
``E42_amortized_batch`` wall time keeps measuring the same work.
"""

import os
import sys
import time

import numpy as np

from repro import obs
from repro.models import RandomForestClassifier
from repro.shapley import SamplingShapleyExplainer, TreeShapExplainer

from conftest import emit, fmt_row

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles.coalition_walk import sampling_explain  # noqa: E402
from tests.oracles.tree_walk import (  # noqa: E402
    tree_shap_explain,
    walk_forest_proba,
    walk_gbm_raw,
)

N_PERMUTATIONS = 100
BATCH_SAMPLING = 32
BATCH_TREE = 256
PREDICT_ROWS = 4501
PREDICT_REPEATS = 5


def _min_wall(fn, X, repeats):
    """(fastest wall seconds over ``repeats`` calls, last output)."""
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        out = fn(X)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_e42_amortized_batch(loan_setup):
    data, logistic, gbm = loan_setup

    # -- sampling SHAP: shared coalition plan vs per-row re-sampling ------
    # The logistic model keeps the (identical-on-both-paths) model-eval
    # cost small, so the measured gap is the amortizable work itself:
    # permutation draws, walk loops, and per-call dispatch overhead.
    common = dict(
        n_permutations=N_PERMUTATIONS, max_background=80, seed=3
    )
    X = data.X[:BATCH_SAMPLING]
    per_row = SamplingShapleyExplainer(logistic, data.X, **common)
    single = SamplingShapleyExplainer(logistic, data.X, **common)
    amortized = SamplingShapleyExplainer(logistic, data.X, **common)

    t0 = time.perf_counter()
    serial_atts = [sampling_explain(per_row, x) for x in X]
    wall_per_row = time.perf_counter() - t0

    # Batch of one: explain(x) per row on the shared plan.
    t0 = time.perf_counter()
    single_atts = [single.explain(x) for x in X]
    wall_single = time.perf_counter() - t0

    built_before = obs.counter("coalition.plan.built").value
    reused_before = obs.counter("coalition.plan.reused").value
    t0 = time.perf_counter()
    batch_atts = amortized.explain_batch(X, backend="serial")
    wall_batch = time.perf_counter() - t0
    plans_built = obs.counter("coalition.plan.built").value - built_before
    plan_reuses = obs.counter("coalition.plan.reused").value - reused_before

    # Equal budget, identical bits: amortization is a pure perf change.
    for serial_att, single_att, batch_att in zip(serial_atts, single_atts,
                                                 batch_atts):
        for att in (single_att, batch_att):
            assert np.array_equal(serial_att.values, att.values)
            assert np.array_equal(serial_att.meta["std_err"],
                                  att.meta["std_err"])
            assert serial_att.base_value == att.base_value
    sampling_speedup = wall_per_row / wall_batch
    single_speedup = wall_per_row / wall_single

    # -- TreeSHAP: cached leaf-path table + kernel vs recursion -----------
    X_tree = data.X[:BATCH_TREE]
    tree_explainer = TreeShapExplainer(gbm)

    t0 = time.perf_counter()
    precompute = tree_explainer.precompute()
    precompute_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    tree_batch = tree_explainer.explain_batch(X_tree, backend="serial")
    wall_tree_batch = time.perf_counter() - t0

    # Per-instance scalar recursion (the oracle): the cost every row
    # paid before the leaf-path kernel.
    t0 = time.perf_counter()
    tree_serial = [tree_shap_explain(gbm, x)[0] for x in X_tree]
    wall_tree_serial = time.perf_counter() - t0

    batch_values = np.stack([a.values for a in tree_batch])
    serial_values = np.stack(tree_serial)
    # Kernel vs recursion agree to 1e-12 (different summation order);
    # the kernel itself is bitwise stable across backends and splits.
    assert np.abs(batch_values - serial_values).max() <= 1e-12
    rerun = tree_explainer.explain_batch(X_tree, backend="thread")
    assert np.array_equal(
        batch_values, np.stack([a.values for a in rerun])
    )
    tree_speedup = wall_tree_serial / wall_tree_batch

    rows = [
        fmt_row("path", "wall s", "per row ms", "speedup"),
        fmt_row("sampling per-walk", wall_per_row,
                wall_per_row / BATCH_SAMPLING * 1e3, 1.0),
        fmt_row("sampling batch-of-1", wall_single,
                wall_single / BATCH_SAMPLING * 1e3, single_speedup),
        fmt_row("sampling batch", wall_batch,
                wall_batch / BATCH_SAMPLING * 1e3, sampling_speedup),
        fmt_row("tree per-row", wall_tree_serial,
                wall_tree_serial / BATCH_TREE * 1e3, 1.0),
        fmt_row("tree precompute", precompute_s, "(once)", "-"),
        fmt_row("tree batch", wall_tree_batch,
                wall_tree_batch / BATCH_TREE * 1e3, tree_speedup),
        fmt_row("plan", "built", plans_built, "reused", plan_reuses),
    ]
    emit(
        "E42_amortized_batch",
        rows,
        data={
            "n_permutations": N_PERMUTATIONS,
            "batch_sampling": BATCH_SAMPLING,
            "batch_tree": BATCH_TREE,
            "sampling": {
                "wall_s_per_row": wall_per_row,
                "wall_s_single": wall_single,
                "wall_s_batch": wall_batch,
                "speedup": sampling_speedup,
                "single_speedup": single_speedup,
            },
            "tree": {
                "wall_s_per_row": wall_tree_serial,
                "wall_s_batch": wall_tree_batch,
                "precompute_s": precompute_s,
                "speedup": tree_speedup,
            },
            "plans_built": int(plans_built),
            "plan_reuses": int(plan_reuses),
        },
        summary={
            "sampling_speedup": round(sampling_speedup, 3),
            "sampling_single_speedup": round(single_speedup, 3),
            "tree_speedup": round(tree_speedup, 3),
        },
    )

    # Headline floors: one plan drawn, every other row rides it; batch
    # sampling ≥5× the per-walk loop (a batch of one ≥3×), batch
    # TreeSHAP ≥10× the recursion.
    assert plans_built == 1
    assert plan_reuses == BATCH_SAMPLING - 1
    assert sampling_speedup >= 5.0
    assert single_speedup >= 3.0
    assert tree_speedup >= 10.0


def test_e42_tree_predict(loan_setup):
    data, __, gbm = loan_setup
    forest = RandomForestClassifier(n_estimators=20, max_depth=6, seed=0)
    forest.fit(data.X, data.y)
    X = np.resize(data.X, (PREDICT_ROWS, data.X.shape[1]))
    predict = {}
    for name, fast, oracle in (
        ("gbm", gbm.decision_function, lambda Q: walk_gbm_raw(gbm, Q)),
        ("rf", forest.predict_proba, lambda Q: walk_forest_proba(forest, Q)),
    ):
        fast_s, fast_out = _min_wall(fast, X, PREDICT_REPEATS)
        oracle_s, oracle_out = _min_wall(oracle, X, 1)
        # A pure perf change: the stacked descent returns the walk's bits.
        assert np.array_equal(fast_out, oracle_out)
        predict[name] = {
            "us_per_row": fast_s / PREDICT_ROWS * 1e6,
            "oracle_us_per_row": oracle_s / PREDICT_ROWS * 1e6,
            "speedup": oracle_s / fast_s,
        }
    tree_predict_speedup = min(p["speedup"] for p in predict.values())

    rows = [fmt_row("tree_predict", "fast us/row", "walk us/row", "speedup")]
    rows += [
        fmt_row(name, p["us_per_row"], p["oracle_us_per_row"], p["speedup"])
        for name, p in predict.items()
    ]
    emit(
        "E42_tree_predict",
        rows,
        data={"rows": PREDICT_ROWS, **predict},
        summary={"tree_predict_speedup": round(tree_predict_speedup, 3)},
    )
    assert tree_predict_speedup >= 3.0
