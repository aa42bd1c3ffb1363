"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from stats import (DueClock, InsufficientSamples, percentile,  # noqa: E402
                   poisson_schedule, self_time, union_length)


# -- percentile with at least ten samples beyond it ----------------------------

def test_p99_needs_a_thousand_samples():
    with pytest.raises(InsufficientSamples):
        percentile(np.arange(999.0), 0.99)
    assert percentile(np.arange(1000.0), 0.99) == pytest.approx(
        np.quantile(np.arange(1000.0), 0.99))


def test_p90_needs_a_hundred_samples():
    with pytest.raises(InsufficientSamples):
        percentile(np.arange(99.0), 0.90)
    assert percentile(np.arange(100.0), 0.90) == pytest.approx(89.1)


def test_median_needs_one_sample_and_empty_is_refused():
    assert percentile([3.0], 0.5) == 3.0
    with pytest.raises(InsufficientSamples):
        percentile([], 0.5)


# -- span self time ------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # Children overlap (1-3, 2-4) and spill past the parent's end (8-12).
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) \
        == pytest.approx(5.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.5, []) == pytest.approx(3.5)


def test_union_length_counts_nested_intervals_once():
    assert union_length([(0.0, 10.0), (2.0, 3.0), (4.0, 6.0)]) == \
        pytest.approx(10.0)
    assert union_length([(0.0, 1.0), (5.0, 6.0)], lo=0.5, hi=5.5) == \
        pytest.approx(1.0)


# -- arrival schedules ---------------------------------------------------------

def test_poisson_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(35.0, 30.0, np.random.default_rng(5))
    b = poisson_schedule(35.0, 30.0, np.random.default_rng(5))
    c = poisson_schedule(35.0, 30.0, np.random.default_rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.size == c.size == 1050
    assert np.all(np.diff(a) >= 0) and 0.0 <= a[0] and a[-1] <= 30.0


def test_serve_schedule_is_deterministic_per_seed_and_window():
    import serve_online

    first = serve_online.make_schedule(3, 0, 4.0)
    again = serve_online.make_schedule(3, 0, 4.0)
    other_window = serve_online.make_schedule(3, 1, 4.0)
    other_seed = serve_online.make_schedule(4, 0, 4.0)
    assert [(o, e, b) for o, e, b, __ in first] == \
        [(o, e, b) for o, e, b, __ in again]
    assert [o for o, *__ in first] != [o for o, *__ in other_window]
    assert [o for o, *__ in first] != [o for o, *__ in other_seed]
    offsets = [o for o, *__ in first]
    assert offsets == sorted(offsets)


# -- latency from the due time -------------------------------------------------

def test_due_clock_times_from_the_due_time():
    clock = DueClock(100.0)
    assert clock.due_at(0.5) == 100.5
    assert clock.latency_ms(0.5, 100.7) == pytest.approx(200.0)
    assert clock.lag_ms(0.5, 100.52) == pytest.approx(20.0)
    assert clock.lag_ms(0.5, 100.4) == 0.0


class _SlowServer:
    """Answers after a fixed service time, one request at a time."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.lock = threading.Lock()

    def handle_explain(self, body):
        with self.lock:
            time.sleep(self.service_s)
        return 200, {"meta": {}}, {}


def test_queued_request_is_charged_the_wait():
    import serve_online

    service = 0.05
    body = {"model": "cheap"}
    # Two requests due at the same instant on one lane: the second waits
    # for the first, and its latency from the due time shows it.
    requests = [(0.0, "cheap", body, False), (0.0, "cheap", body, False)]
    out = serve_online.drive(_SlowServer(service), requests)
    first, second = sorted(o[2] for o in out)
    assert first >= service * 1000.0
    assert second >= 2 * service * 1000.0


# -- output checks -------------------------------------------------------------

def _attribution(values, base, prediction):
    return SimpleNamespace(values=np.asarray(values), base_value=base,
                           prediction=prediction)


def test_efficiency_check_flags_a_perturbed_attribution():
    import batch_offline

    good = _attribution([0.1, 0.2], 0.5, 0.8)
    bad = _attribution([0.1, 0.2 + 1e-6], 0.5, 0.8)
    assert batch_offline.check_rows("kernel_shap", [good], [0.8]) == []
    assert len(batch_offline.check_rows("kernel_shap", [bad], [0.8])) == 1
    # LIME is not additive; only its prediction and finiteness are checked.
    assert batch_offline.check_rows("lime", [bad], [0.8]) == []
    assert len(batch_offline.check_rows("lime", [bad], [0.7])) == 1


def test_per_row_ms_groups_light_calls_and_heavy_rounds():
    import batch_offline

    calls = [(0, "light", 1.0, 0.016, 16), (0, "heavy", 1.5, 0.2, 1),
             (0, "heavy", 1.7, 0.4, 1), (1, "light", 2.0, 0.032, 16),
             (1, "heavy", 2.5, 0.3, 1)]
    ms = batch_offline.per_row_ms(calls)
    assert ms["light"] == pytest.approx([1.0, 2.0])
    assert ms["heavy"] == pytest.approx([300.0, 300.0])


def test_explain_time_is_averaged_over_complete_blocks_only():
    import provenance_mixed

    latency = {"why_not": [(0, 0.0, 100.0), (1, 0.0, 100.0)],
               "aggregate": [(0, 0.0, 20.0)] * 3 + [(1, 0.0, 20.0)]}
    assert provenance_mixed.explain_ms_per_block(latency) == \
        pytest.approx([40.0])


# -- host-speed calibration ----------------------------------------------------

def _track(seconds):
    from calibrate import SpeedTrack

    track = SpeedTrack()
    track.times = [float(t) for t in range(len(seconds))]
    track.seconds = list(seconds)
    return track


def test_speed_track_scales_by_the_nearest_kernel_samples():
    from calibrate import REF_MS

    ref = REF_MS / 1000.0
    track = _track([ref] * 10 + [2 * ref] * 10)
    assert track.factor(2.5) == pytest.approx(1.0)
    assert track.factor(16.5) == pytest.approx(0.5)
    # A slow host (kernel twice as slow) halves what it measured.
    assert track.scale(16.5, 10.0) == pytest.approx(5.0)


def test_speed_track_ignores_one_outlying_sample():
    from calibrate import REF_MS

    ref = REF_MS / 1000.0
    track = _track([ref] * 4 + [10 * ref] + [ref] * 4)
    assert track.factor(4.2) == pytest.approx(1.0)


def test_kernel_takes_time():
    from calibrate import kernel

    assert kernel() > 0.0


# -- the result's metrics ------------------------------------------------------

def _outcome(metrics):
    return {"metrics": metrics, "problems": []}


def test_every_end_to_end_metric_must_be_measured():
    from common import collect_metrics

    wanted = {"setup_s": "s", "light_p50_ms": "ms"}
    outcome = _outcome({"setup_s": (0.2, "s")})
    metrics = collect_metrics(outcome, wanted, tuple(wanted), trace=False)
    assert metrics == {"setup_s": {"value": 0.2, "unit": "s"}}
    assert outcome["problems"] == ["metric light_p50_ms was not measured"]


def test_unreached_layers_read_zero_and_reached_ones_are_required():
    from common import collect_metrics

    wanted = {"db.index.builds": "count", "serve.self_ms.p50": "ms",
              "models.predict_share": "ratio"}
    outcome = _outcome({"serve.self_ms.p50": (1.5, "ms")})
    metrics = collect_metrics(
        outcome, wanted, ("serve.self_ms.p50", "models.predict_share"),
        trace=True)
    assert metrics["db.index.builds"] == {"value": 0.0, "unit": "count"}
    assert metrics["serve.self_ms.p50"] == {"value": 1.5, "unit": "ms"}
    assert "models.predict_share" not in metrics
    assert outcome["problems"] == \
        ["metric models.predict_share was not measured"]


def test_unknown_wrong_unit_and_non_finite_metrics_are_problems():
    from common import collect_metrics

    wanted = {"a_ms": "ms", "b_ms": "ms"}
    outcome = _outcome({"a_ms": (1.0, "s"), "b_ms": (float("nan"), "ms"),
                        "c_ms": (1.0, "ms")})
    assert collect_metrics(outcome, wanted, tuple(wanted), False) == {}
    assert len(outcome["problems"]) == 3
