"""E38 — Fault-tolerant runtime: drift, overhead and degradation under faults.

Claim: the guarded runtime turns injected model failures into retries
instead of crashes — at a 10% fault rate every batch row still completes
and the recovered attributions drift ≤1e-9 from the clean run (retries
re-ask a deterministic model, so recovery is exact) — while the guard
itself prices at ≤5% wall-time overhead when nothing faults. One
poisoned row in a parallel ``explain_batch`` costs exactly that row,
never the batch.
"""

import time

import numpy as np

from repro import obs
from repro.robust import FaultyModel, GuardConfig, PartialBatchError
from repro.shapley import KernelShapExplainer

from conftest import emit, fmt_row

N_SAMPLES = 64
N_ROWS = 8
FAULT_RATE = 0.10
RETRIES = 25  # generous: at 10% faults, P(25 consecutive faults) ~ 1e-25


def _timed_batch(explainer, X, **kwargs):
    t0 = time.perf_counter()
    results = explainer.explain_batch(X, **kwargs)
    return results, time.perf_counter() - t0


def test_e38_fault_tolerance(loan_setup):
    data, __, gbm = loan_setup
    X = data.X[:N_ROWS]

    common = dict(n_samples=N_SAMPLES, max_background=50, seed=3)

    # Clean reference: guarded runtime, no faults.
    clean = KernelShapExplainer(gbm, data.X, **common)
    clean_results, wall_clean = _timed_batch(clean, X)

    # Unguarded baseline prices the guard at 0% faults.
    bare = KernelShapExplainer(gbm, data.X, guard=False, **common)
    __, wall_bare = _timed_batch(bare, X)
    overhead = wall_clean / wall_bare - 1.0

    # 10% injected faults (transient errors + NaN bursts), recovered by
    # retry/re-query. The model is deterministic, so a successful retry
    # returns the exact clean value: drift should be ~0.
    faulty_model = FaultyModel(
        gbm, error_rate=FAULT_RATE / 2, nan_rate=FAULT_RATE / 2, seed=11
    )
    guarded = KernelShapExplainer(
        faulty_model, data.X,
        guard=GuardConfig(retries=RETRIES, backoff_s=0.0,
                          on_nonfinite="requery"),
        **common,
    )
    retries_before = obs.counter("robust.retries").value
    faulty_results, wall_faulty = _timed_batch(guarded, X)
    retries_spent = obs.counter("robust.retries").value - retries_before
    faults_injected = sum(faulty_model.fault_counts.values())

    drift = max(
        float(np.abs(a.values - b.values).mean())
        for a, b in zip(clean_results, faulty_results)
    )

    # Degradation: one poisoned row (non-finite instance) costs exactly
    # that row, on the parallel path too.
    X_poisoned = X.copy()
    X_poisoned[3, 0] = np.nan
    failed_before = obs.counter("robust.rows_failed").value
    try:
        clean.explain_batch(X_poisoned, backend="thread", n_procs=2)
        rows_survived = -1  # unreachable: the poisoned row must fail
    except PartialBatchError as e:
        rows_survived = len(e.completed_indices)
    rows_failed = obs.counter("robust.rows_failed").value - failed_before

    rows = [
        fmt_row("scenario", "wall s", "rows ok", "retries", "drift"),
        fmt_row("unguarded 0% faults", wall_bare, N_ROWS, 0, 0.0),
        fmt_row("guarded 0% faults", wall_clean, N_ROWS, 0, 0.0),
        fmt_row(f"guarded {FAULT_RATE:.0%} faults", wall_faulty, N_ROWS,
                retries_spent, drift),
        fmt_row("poisoned batch row", "-", rows_survived, "-", "-"),
        fmt_row("guard overhead", f"{overhead:+.1%}", "-", "-", "-"),
    ]
    emit("E38_fault_tolerance", rows, data={
        "n_rows": N_ROWS,
        "n_samples": N_SAMPLES,
        "fault_rate": FAULT_RATE,
        "wall_s_unguarded": wall_bare,
        "wall_s_guarded": wall_clean,
        "wall_s_faulty": wall_faulty,
        "guard_overhead": overhead,
        "retries_spent": int(retries_spent),
        "faults_injected": int(faults_injected),
        "mean_abs_drift": drift,
        "poisoned_rows_survived": rows_survived,
    })

    # Headline claims.
    assert all(r is not None for r in faulty_results)  # every row completed
    assert faults_injected > 0 and retries_spent > 0   # faults really fired
    assert drift <= 1e-9                               # recovery is exact
    assert rows_survived == N_ROWS - 1                 # lost only the bad row
    # Guard overhead at 0% faults stays ≤5% (with slack for timer noise
    # on a sub-second benchmark).
    assert overhead <= 0.05 or wall_clean - wall_bare < 0.25
