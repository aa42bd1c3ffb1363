"""Workload ``batch_offline``: a closed loop of ``explain_batch`` calls.

One offline client explains fresh rows batch after batch, each call
waiting for the previous one. A round visits every cell of the grid —
sampling SHAP, kernel SHAP and LIME on each of logistic regression,
boosted trees (25 x depth 3) and a random forest (20 x depth 6), plus
TreeSHAP on the two tree models — with unique rows in every call. The
explainers use a ``BACKGROUND_ROWS``-row background and their default
budgets, so the shared coalition plan does the work here and serve,
cache and per-walk bookkeeping do almost none.

The cells fall in two groups. ``light`` cells (every explainer on the
logistic model, and TreeSHAP) cost at most a few milliseconds per row;
each gets ``LIGHT_CALLS`` calls of ``LIGHT_ROWS`` rows per round. ``heavy``
cells (the model-agnostic explainers on the tree models) cost hundreds
of milliseconds per row, dominated by ``predict``; each gets one call of
``HEAVY_ROWS`` rows per round.

End-to-end metrics, in milliseconds of ``explain_batch`` time per row:
``light_p50_ms`` and ``light_p90_ms`` over the light calls of the
window, ``heavy_p50_ms`` the median over rounds of the heavy cells'
time per row.
"""

from __future__ import annotations

import math
import time

import numpy as np

from calibrate import NEAREST, SpeedTrack
from common import SetupTimer, Tally, counter_delta, counter_values
from stats import median, percentile, tail_or_none

BACKGROUND_ROWS = 50
EFFICIENCY_TOL = 1e-9
PREDICTION_TOL = 1e-9
LIGHT_CALLS = 4
LIGHT_ROWS = 16
HEAVY_ROWS = 1
CELLS = (
    ("light", "sampling_shap", "logistic"),
    ("light", "kernel_shap", "logistic"),
    ("light", "lime", "logistic"),
    ("light", "tree_shap", "gbm"),
    ("light", "tree_shap", "rf"),
    ("heavy", "sampling_shap", "gbm"),
    ("heavy", "kernel_shap", "gbm"),
    ("heavy", "lime", "gbm"),
    ("heavy", "sampling_shap", "rf"),
    ("heavy", "kernel_shap", "rf"),
    ("heavy", "lime", "rf"),
)
CALLS = {"light": [LIGHT_ROWS] * LIGHT_CALLS, "heavy": [HEAVY_ROWS]}
ROWS_PER_ROUND = sum(sum(CALLS[g]) for g, __, __ in CELLS)
MAX_ROUNDS = 200
# The models and their background are fixed, as a deployed model is; the
# seed draws the rows explained. Forests fitted to seed-drawn data differ
# in depth and leaf count, which moved TreeSHAP's cost per row by up to 10%
# from seed to seed.
TRAIN_SEED = 0
PER_LAYER = (
    *(f"explain.overhead_ratio.{method}.{model}"
      for method in ("sampling_shap", "kernel_shap", "lime")
      for model in ("logistic", "gbm", "rf")),
    "explain.v_calls_per_row", "coalition.dedupe_ratio",
    "coalition.eval_self_us_per_row", "coalition.plan.reused_ratio",
    "coalition.plan.fallbacks",
    *(f"models.{name}.{model}"
      for name in ("predict_us_per_row", "rows_per_explain")
      for model in ("logistic", "gbm", "rf")),
    "models.calls_per_explain", "models.predict_share",
    "treeshap.us_per_row.gbm", "treeshap.us_per_row.rf",
    "robust.retries", "robust.rows_failed", "robust.budget_exhausted",
    "bench.trace_overhead_ratio",
)


def _build() -> dict:
    from repro.datasets import make_loan_dataset
    from repro.models import (GradientBoostingClassifier,
                              LogisticRegression, RandomForestClassifier)
    from repro.shapley import (KernelShapExplainer,
                               SamplingShapleyExplainer, TreeShapExplainer)
    from repro.surrogate import LimeTabularExplainer

    data = make_loan_dataset(600, seed=TRAIN_SEED)
    models = {
        "logistic": LogisticRegression(alpha=1.0).fit(data.X, data.y),
        "gbm": GradientBoostingClassifier(
            n_estimators=25, max_depth=3, seed=0).fit(data.X, data.y),
        "rf": RandomForestClassifier(
            n_estimators=20, max_depth=6, seed=0).fit(data.X, data.y),
    }
    background = data.X[:BACKGROUND_ROWS]
    explainers = {}
    for __, method, model in CELLS:
        m = models[model]
        if method == "sampling_shap":
            explainers[method, model] = SamplingShapleyExplainer(
                m, background, seed=0)
        elif method == "kernel_shap":
            explainers[method, model] = KernelShapExplainer(
                m, background, seed=0)
        elif method == "lime":
            explainers[method, model] = LimeTabularExplainer(m, data, seed=0)
        else:
            explainers[method, model] = TreeShapExplainer(m)
            explainers[method, model].precompute()
    return {"data": data, "models": models, "explainers": explainers}


def _model_output(method: str, model_name: str, model, explainer,
                  X: np.ndarray) -> np.ndarray:
    """What each explainer reports as ``prediction`` for the rows:
    TreeSHAP explains the raw margin of boosting and the positive-class
    probability of a forest, the others their normalized predict."""
    if method != "tree_shap":
        return np.asarray(explainer.predict(X), dtype=float)
    if model_name == "gbm":
        return np.asarray(model.decision_function(X), dtype=float)
    return np.asarray(model.predict_proba(X)[:, -1], dtype=float)


def check_rows(method, results, expected_predictions) -> list[str]:
    """Per-row problems: efficiency for SHAP, sanity for LIME."""
    problems = []
    for r, attribution in enumerate(results):
        values = np.asarray(attribution.values, dtype=float)
        if not np.all(np.isfinite(values)):
            problems.append(f"row {r}: non-finite attribution")
            continue
        prediction = float(attribution.prediction)
        if abs(prediction - expected_predictions[r]) > PREDICTION_TOL:
            problems.append(
                f"row {r}: prediction {prediction!r} != model output "
                f"{expected_predictions[r]!r}")
            continue
        if method != "lime":
            gap = float(values.sum()) - (prediction
                                         - float(attribution.base_value))
            if not abs(gap) <= EFFICIENCY_TOL:
                problems.append(f"row {r}: efficiency gap {gap:.3e}")
    return problems


def warm(state) -> None:
    """One call per cell before the window: the first call builds the
    cell's coalition plan, which a long-running batch job pays once."""
    X = state["data"].X[-HEAVY_ROWS:]
    for __, method, model in CELLS:
        state["explainers"][method, model].explain_batch(X)


def loop(state, rows, seconds: float, tally: Tally, phase: str) -> dict:
    """Whole rounds over the grid until ``seconds`` have passed.

    Returns every timed call as ``(round, group, midpoint, seconds,
    rows)``; the host's speed is sampled between calls.
    """
    explainers, models = state["explainers"], state["models"]
    track = state["track"]
    calls: list = []
    per_cell = {f"{m}.{model}": 0 for __, m, model in CELLS}
    cursor = 0
    for __ in range(NEAREST):
        track.sample()
    deadline = time.perf_counter() + seconds
    n_rounds = 0
    while time.perf_counter() < deadline and n_rounds < MAX_ROUNDS:
        if cursor + ROWS_PER_ROUND > rows.shape[0]:
            break
        for group, method, model in CELLS:
            explainer = explainers[method, model]
            for n in CALLS[group]:
                X = rows[cursor:cursor + n]
                cursor += n
                track.maybe()
                t0 = time.perf_counter()
                try:
                    results = explainer.explain_batch(X)
                except Exception as exc:  # a failed call fails its rows
                    for __ in range(n):
                        tally.add(False, f"{phase}: {method}/{model} raised "
                                         f"{type(exc).__name__}: {exc}")
                    continue
                t1 = time.perf_counter()
                calls.append((n_rounds, group, (t0 + t1) / 2, t1 - t0, n))
                expected = _model_output(method, model, models[model],
                                         explainer, X)
                problems = check_rows(method, results, expected)
                if len(results) != n:
                    problems.append(f"{len(results)} results for {n} rows")
                bad_rows = min(n, len(problems))
                for i in range(n):
                    if i < bad_rows:
                        tally.add(False, f"{phase}: {method}/{model} "
                                         f"{problems[i]}")
                    else:
                        tally.add(True)
                per_cell[f"{method}.{model}"] += n
        n_rounds += 1
    for __ in range(NEAREST):
        track.sample()
    return {"calls": calls, "rounds": n_rounds, "rows_per_cell": per_cell}


def per_row_ms(calls, track=None) -> dict:
    """Milliseconds per row: one sample per light call, and per round
    the heavy calls' total time over their rows. With ``track`` each
    call is first scaled to the reference speed."""
    light: list = []
    heavy: dict = {}
    for n_round, group, mid, seconds, n in calls:
        if track is not None:
            seconds = track.scale(mid, seconds)
        if group == "light":
            light.append(seconds / n * 1000.0)
        else:
            spent = heavy.setdefault(n_round, [0.0, 0])
            spent[0] += seconds
            spent[1] += n
    return {"light": light,
            "heavy": [t / n * 1000.0 for t, n in heavy.values()]}


def _summary(ms: dict) -> dict:
    return {"light_p50": _median_or_nan(ms["light"]),
            "light_p90": tail_or_none(ms["light"], 0.90),
            "heavy_p50": _median_or_nan(ms["heavy"])}


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.datasets import make_loan_dataset

    track = SpeedTrack()
    setups = SetupTimer(_build, track)
    state = setups.run()
    state["track"] = track
    warm(state)
    # Unique rows the models never saw, enough for MAX_ROUNDS rounds in
    # each of the two windows.
    rows = make_loan_dataset(2 * ROWS_PER_ROUND * MAX_ROUNDS,
                             seed=seed + 1_000_003).X
    tally = Tally()
    metrics: dict = {}
    properties: dict = {"phases": {}, "calls_per_round": CALLS,
                        "background_rows": BACKGROUND_ROWS}

    untraced_seconds = seconds / 2 if trace else seconds
    half = rows.shape[0] // 2
    plain = loop(state, rows[:half], untraced_seconds, tally, "untraced")
    properties["phases"]["untraced"] = _phase_properties(plain)
    ms = per_row_ms(plain["calls"], track)
    properties["per_row_ms"] = {
        "reference_speed": _summary(ms),
        "as_measured": _summary(per_row_ms(plain["calls"])),
    }
    light_p50 = _median_or_nan(ms["light"])
    if not trace:
        setups.run()
        metrics["setup_s"] = (setups.median(), "s")
        properties["setup_s_as_measured"] = setups.measured_median()
        metrics["light_p50_ms"] = (light_p50, "ms")
        metrics["light_p90_ms"] = (percentile(ms["light"], 0.90), "ms")
        metrics["heavy_p50_ms"] = (_median_or_nan(ms["heavy"]), "ms")
    else:
        from tracing import COUNTERS, Analysis, Recorder, \
            explain_layer_metrics, install

        recorder = Recorder()
        before = counter_values(COUNTERS)
        undo = install(recorder)
        try:
            traced = loop(state, rows[half:], seconds, tally, "traced")
        finally:
            undo()
        counters = counter_delta(before)
        properties["phases"]["traced"] = _phase_properties(traced)
        metrics.update(explain_layer_metrics(Analysis(recorder.spans),
                                             counters))
        traced_ms = per_row_ms(traced["calls"], track)
        metrics["bench.trace_overhead_ratio"] = (
            _median_or_nan(traced_ms["light"]) / light_p50, "ratio")
    properties["kernel_ms"] = track.kernel_ms()
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "properties": properties,
    }


def _median_or_nan(values) -> float:
    return median(values) if values else math.nan


def _phase_properties(result: dict) -> dict:
    return {"rounds": result["rounds"],
            "rows_per_cell": result["rows_per_cell"]}
