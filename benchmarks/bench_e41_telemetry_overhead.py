"""E41 — telemetry v2 overhead: always-on observability costs <5%.

Telemetry v2 put quantile histograms, the run ledger, per-chunk
coalition timing and pool-health gauges in the hot path of every
explanation. The claim this experiment guards: all of it together —
spans, histograms, ledger rows written to a JSONL sink, traces sampled
at 10% — costs less than 5% wall time on the two workloads whose perf
we already guard, and moves **zero** output bits.

* **E37 workload** — the vectorized coalition engine under
  ``SamplingShapleyExplainer`` (CPU-bound; per-chunk ``observe_duration``
  and the estimator convergence stream are the costs under test).
* **E40 workload** — a trimmed process-backend Data Shapley run
  (latency-bound; worker histogram snapshots/merges and the shard
  gauges are the costs under test).

Each workload runs alternately with observability off
(``obs.set_enabled(False)`` — the wrappers short-circuit) and fully on
(trace sampling 0.1, ledger sink to a temp JSONL). Min-of-repeats walls
are compared, so scheduler noise inflates neither side.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import obs
from repro.datasets import make_classification, make_loan_dataset
from repro.datavalue.data_shapley import tmc_shapley
from repro.datavalue.utility import UtilityFunction
from repro.models import GradientBoostingClassifier, LogisticRegression
from repro.models.model_selection import train_test_split
from repro.shapley import SamplingShapleyExplainer

from conftest import emit, fmt_row

N_PERMUTATIONS = 400
REPEATS = 5
N_PROCS = 4
PROCESS_PERMS = 24
RETRAIN_LATENCY_S = 0.008
MAX_OVERHEAD = 0.05
TRACE_SAMPLE = 0.1


class LatencyModel:
    """Logistic fit behind a fixed per-retrain latency (as in E40)."""

    def __init__(self) -> None:
        self._model = LogisticRegression(alpha=1.0)

    def fit(self, X, y):
        time.sleep(RETRAIN_LATENCY_S)
        self._model.fit(X, y)
        return self

    def predict(self, X):
        return self._model.predict(X)


def _make_utility() -> UtilityFunction:
    data = make_classification(60, n_features=3, n_informative=2,
                               class_sep=2.0, seed=13)
    Xtr, Xv, ytr, yv = train_test_split(data.X, data.y, test_size=0.4, seed=0)
    return UtilityFunction(lambda: LatencyModel(), Xtr[:10], ytr[:10], Xv, yv)


def _engine_workload(gbm, X, x):
    # A fresh explainer per run: its coalition plan store must start
    # cold in every condition, or the first condition measured wins.
    explainer = SamplingShapleyExplainer(
        gbm, X, n_permutations=N_PERMUTATIONS,
        max_background=100, seed=3,
    )
    return explainer.explain(x).values


def _process_workload():
    return tmc_shapley(
        _make_utility(), n_permutations=PROCESS_PERMS,
        truncation_tolerance=0.0, seed=3,
        backend="process", n_procs=N_PROCS,
    ).values


def _measure(workload, ledger_path: str):
    """Min-of-repeats walls for obs-off vs obs-fully-on, plus outputs.

    Conditions alternate within each repeat so slow drift (thermal,
    background load) biases neither side.
    """
    walls: dict[str, list[float]] = {"off": [], "on": []}
    outputs: dict[str, np.ndarray] = {}
    workload()  # warm-up: JIT-free, but caches, imports and forks are not
    for __ in range(REPEATS):
        for label in ("off", "on"):
            if label == "on":
                obs.set_enabled(True)
                obs.set_trace_sample(TRACE_SAMPLE)
                obs.reset_ledger(ledger_path)
            else:
                obs.set_enabled(False)
            try:
                t0 = time.perf_counter()
                out = workload()
                walls[label].append(time.perf_counter() - t0)
            finally:
                obs.set_enabled(True)
                obs.set_trace_sample(None)
            outputs[label] = np.asarray(out)
    return min(walls["off"]), min(walls["on"]), outputs


def test_e41_telemetry_overhead(loan_setup, tmp_path):
    data, __, gbm = loan_setup
    x = data.X[1]
    ledger_path = str(tmp_path / "ledger.jsonl")

    try:
        engine_off, engine_on, engine_out = _measure(
            lambda: _engine_workload(gbm, data.X, x), ledger_path
        )
        process_off, process_on, process_out = _measure(
            _process_workload, ledger_path
        )
    finally:
        # Hand the shared registry/ledger back to the other benchmarks.
        obs.set_enabled(True)
        obs.set_trace_sample(None)
        obs.reset_ledger()

    engine_overhead = engine_on / engine_off - 1.0
    process_overhead = process_on / process_off - 1.0

    # The ledger sink really ran: one JSON row per obs-on explain call.
    with open(ledger_path, encoding="utf-8") as fh:
        ledger_rows = [json.loads(line) for line in fh if line.strip()]

    rows = [
        fmt_row("workload", "obs off (s)", "obs on (s)", "overhead"),
        fmt_row("engine (E37)", engine_off, engine_on,
                f"{engine_overhead * 100.0:+.1f}%"),
        fmt_row("process (E40)", process_off, process_on,
                f"{process_overhead * 100.0:+.1f}%"),
        fmt_row("ledger rows", len(ledger_rows), "trace sample",
                TRACE_SAMPLE),
    ]
    emit("E41_telemetry_overhead", rows, data={
        "n_permutations": N_PERMUTATIONS,
        "repeats": REPEATS,
        "trace_sample": TRACE_SAMPLE,
        "engine": {
            "wall_s_off": engine_off,
            "wall_s_on": engine_on,
            "overhead": engine_overhead,
        },
        "process": {
            "wall_s_off": process_off,
            "wall_s_on": process_on,
            "overhead": process_overhead,
        },
        "ledger_rows": len(ledger_rows),
    })

    # Bitwise determinism: telemetry is purely passive.
    assert np.array_equal(engine_out["off"], engine_out["on"])
    assert np.array_equal(process_out["off"], process_out["on"])
    # The headline claim: full telemetry under 5% on both regimes.
    assert engine_overhead < MAX_OVERHEAD
    assert process_overhead < MAX_OVERHEAD
    # And the obs-on runs really exercised the ledger sink.
    assert len(ledger_rows) >= REPEATS
    assert all(row["status"] == "ok" for row in ledger_rows)
