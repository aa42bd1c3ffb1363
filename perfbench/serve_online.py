"""Workload ``serve_online``: open-loop explain traffic to the service.

Independent users ask for one explanation each, so arrivals are an open
loop: a Poisson schedule per endpoint, drawn from the seed before the
window starts, dispatched on time by one generator thread to one
dispatch thread that calls ``ExplainServer.handle_explain`` in-process
(sampling tier, ``ServeConfig()`` defaults). One dispatch thread keeps
the service a single queue: a second thread only contends for the
interpreter lock, and that contention made the tails depend on chance
overlaps more than on the code. Every latency is timed from when the
request was due, so a request that waits behind a slow one is charged
the wait.

Endpoints: ``cheap`` (logistic regression, default sampling budget) and
``tree`` (boosted trees, 25 stages of depth 3, on a 4-row background;
its clients ask for 20 permutations). The small tree background and
budget keep a tree request to a few cheap requests' worth of time, so
a cheap request stuck behind one moves the cheap tail without owning
it; model ``predict`` still dominates a tree request. About
``HOT_SHARE`` of the requests repeat one of ``N_HOT`` hot instances per
endpoint (the warm cache serves them); every other instance is unique.

End-to-end metrics: ``light_p50_ms`` and ``light_p90_ms`` are the median
and 90th percentile of the cheap endpoint's latency, ``heavy_p50_ms``
the tree endpoint's median, all timed from the due time.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from calibrate import NEAREST, SpeedTrack
from common import SetupTimer, Tally, counter_delta, counter_values
from stats import (DueClock, median, percentile, poisson_schedule,
                   self_time, tail_or_none)

RATES = {"cheap": 60.0, "tree": 3.5}  # requests per second
LIMIT_MS = {"cheap": 500.0, "tree": 3000.0}  # a slower answer is a miss
HOT_SHARE = 0.2
N_HOT = 4
BACKGROUND_ROWS = {"cheap": 50, "tree": 4}
PARAMS = {"tree": {"n_permutations": 20}}
IDLE_GAP_S = 0.02  # room the generator needs to sample host speed
N_VERIFY = 8  # served attributions re-derived per endpoint and window
OBS_PAIRS = 40
TRAIN_SEED = 0  # the models are fixed; the seed draws the requests
# Per-layer metrics this workload reaches (the traced run must measure
# every one of them).
PER_LAYER = (
    "serve.cache.hit_ratio", "serve.coalesced_ratio",
    "serve.degraded_ratio", "serve.admission_wait_ms.p99",
    "serve.self_ms.p50", "serve.compute_ms.p50.cheap",
    "serve.compute_ms.p50.tree", "serve.dispatch_lag_ms.p99",
    "explain.overhead_ratio.sampling_shap.logistic",
    "explain.overhead_ratio.sampling_shap.gbm",
    "explain.v_calls_per_row", "coalition.dedupe_ratio",
    "coalition.eval_self_us_per_row", "coalition.plan.reused_ratio",
    "coalition.plan.fallbacks",
    "models.predict_us_per_row.logistic", "models.predict_us_per_row.gbm",
    "models.rows_per_explain.logistic", "models.rows_per_explain.gbm",
    "models.calls_per_explain", "models.predict_share",
    "robust.retries", "robust.rows_failed", "robust.budget_exhausted",
    "obs.spans_per_request", "obs.overhead_ratio",
    "bench.trace_overhead_ratio",
)


def _fit_models():
    from repro.datasets import make_loan_dataset
    from repro.models import GradientBoostingClassifier, LogisticRegression

    data = make_loan_dataset(600, seed=TRAIN_SEED)
    models = {
        "cheap": LogisticRegression(alpha=1.0).fit(data.X, data.y),
        "tree": GradientBoostingClassifier(
            n_estimators=25, max_depth=3, seed=0).fit(data.X, data.y),
    }
    return data, models


def _make_server(data, models):
    """A fresh service with both endpoints hosted and warmed."""
    from repro.serve import ExplainServer, ServeConfig

    server = ExplainServer(ServeConfig())
    start = 0
    for name in ("cheap", "tree"):
        rows = BACKGROUND_ROWS[name]
        server.add_endpoint(name, models[name], data.X[start:start + rows],
                            feature_names=list(data.feature_names))
        start += rows
    # Warm-up: builds each endpoint's explainer; the instance is never
    # part of a measured schedule.
    for name in ("cheap", "tree"):
        status, __, __ = server.handle_explain(_body(name, data.X[-1]))
        if status != 200:
            raise RuntimeError(f"warm-up request to {name} failed: {status}")
    return server


def _body(endpoint: str, x) -> dict:
    body = {"model": endpoint, "instance": [float(v) for v in x],
            "tier": "sampling"}
    if endpoint in PARAMS:
        body["params"] = dict(PARAMS[endpoint])
    return body


def make_schedule(seed: int, window: int, seconds: float) -> list:
    """``(due offset s, endpoint, body, hot)`` tuples sorted by due time.

    Instances come from a seeded draw of the loan distribution that the
    models never saw; each window draws its own pool, so no window
    starts with another's answers in the cache.
    """
    from repro.datasets import make_loan_dataset

    rng = np.random.default_rng([seed, window])
    requests = []
    for name, rate in RATES.items():
        due = poisson_schedule(rate, seconds, rng)
        hot = rng.random(due.size) < HOT_SHARE
        hot_pick = rng.integers(N_HOT, size=due.size)
        pool = make_loan_dataset(
            int(due.size) + N_HOT,
            seed=int(rng.integers(2**31 - 1)),
        ).X
        fresh = iter(range(N_HOT, pool.shape[0]))
        for offset, is_hot, pick in zip(due, hot, hot_pick):
            x = pool[pick] if is_hot else pool[next(fresh)]
            requests.append((float(offset), name, _body(name, x),
                             bool(is_hot)))
    requests.sort(key=lambda r: r[0])
    return requests


def drive(server, requests, track=None) -> list:
    """Dispatch on schedule; per request ``(status, response, latency
    ms from due, generator lag ms, due clock reading)``.

    With a :class:`calibrate.SpeedTrack`, the generator samples the
    host's speed only while the dispatch thread is idle and the next
    request is at least ``IDLE_GAP_S`` away, so a sample never delays
    or overlaps a request.
    """
    out: list = [None] * len(requests)
    clock = DueClock(time.perf_counter() + 0.05)

    def call(i: int, sent: float) -> None:
        offset, __, body, __ = requests[i]
        status, response, __ = server.handle_explain(body)
        done = time.perf_counter()
        out[i] = (status, response, clock.latency_ms(offset, done),
                  clock.lag_ms(offset, sent), clock.due_at(offset))

    futures = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for i, (offset, __, __, __) in enumerate(requests):
            if track is not None and track.due():
                _sample_when_idle(track, futures, clock.due_at(offset))
            delay = clock.due_at(offset) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(call, i, time.perf_counter()))
        for future in futures:
            future.result()
    return out


def _sample_when_idle(track, futures, next_due: float) -> None:
    """Wait for the dispatch thread to finish its last request, then
    sample the host's speed if the next request is still at least
    ``IDLE_GAP_S`` away."""
    slack = next_due - time.perf_counter() - IDLE_GAP_S
    if slack <= 0:
        return
    if futures and wait(futures[-1:], timeout=slack).not_done:
        return
    if next_due - time.perf_counter() > IDLE_GAP_S:
        track.sample()


def _same_attribution(payload: dict, attribution) -> bool:
    return (
        payload["values"] == [float(v) for v in attribution.values]
        and payload["base_value"] == float(attribution.base_value)
        and payload["prediction"] == float(attribution.prediction)
    )


def verify(server, requests, outcomes) -> set:
    """Indices of a spread sample of served attributions that are not
    bitwise-equal to a direct explainer call with the same params."""
    from repro.shapley import SamplingShapleyExplainer

    bad = set()
    direct = {}
    for name in RATES:
        served = [i for i, (__, ep, __, __) in enumerate(requests)
                  if ep == name and outcomes[i][0] == 200]
        if not served:
            continue
        step = max(1, len(served) // N_VERIFY)
        endpoint = server.registry.get(name)
        for i in served[::step][:N_VERIFY]:
            body = requests[i][2]
            payload = outcomes[i][1]["attribution"]
            params = outcomes[i][1]["meta"]["params"]
            key = (name, params["n_permutations"], params["seed"])
            if key not in direct:
                direct[key] = SamplingShapleyExplainer(
                    endpoint.model, endpoint.background,
                    n_permutations=params["n_permutations"],
                    seed=params["seed"],
                )
            expected = direct[key].explain(
                np.asarray(body["instance"]),
                feature_names=list(endpoint.feature_names))
            if not _same_attribution(payload, expected):
                bad.add(i)
    return bad


def score(requests, outcomes, bad: set, tally: Tally, phase: str,
          track) -> dict:
    """Fold one window into the tally; returns its latency lists (at the
    reference speed, and as measured) and properties. The latency limit
    applies to the latency as measured."""
    latency = {name: [] for name in RATES}
    measured = {name: [] for name in RATES}
    sent = {name: 0 for name in RATES}
    succeeded = {name: 0 for name in RATES}
    cache = {"hit": 0, "coalesced": 0, "miss": 0}
    hot = degraded = 0
    for i, (offset, name, body, is_hot) in enumerate(requests):
        status, response, latency_ms, __, due = outcomes[i]
        sent[name] += 1
        hot += is_hot
        latency[name].append(track.scale(due, latency_ms))
        measured[name].append(latency_ms)
        problem = None
        if status != 200:
            problem = f"{phase}: {name} request {i} returned {status}"
        elif i in bad:
            problem = (f"{phase}: {name} request {i} served an attribution "
                       "that differs from a direct explainer call")
        else:
            meta = response["meta"]
            cache[meta["cache"]] = cache.get(meta["cache"], 0) + 1
            degraded += bool(meta["degraded"])
        ok = problem is None and latency_ms <= LIMIT_MS[name]
        succeeded[name] += ok
        tally.add(ok, problem)
    total = len(requests)
    return {
        "latency": latency,
        "measured": measured,
        "properties": {
            "requests_sent": sent,
            "requests_succeeded": succeeded,
            "requests_failed": {n: sent[n] - succeeded[n] for n in RATES},
            "repeat_share": hot / total if total else 0.0,
            "cache_hit_share": cache["hit"] / total if total else 0.0,
            "coalesced_share": cache["coalesced"] / total if total else 0.0,
            "degraded": degraded,
        },
    }


def _window(state, seed, window, seconds, tally, phase, recorder=None):
    data, models, track = state["data"], state["models"], state["track"]
    server = state.pop("server", None) or _make_server(data, models)
    requests = make_schedule(seed, window, seconds)
    undo = None
    if recorder is not None:
        from tracing import install

        undo = install(recorder)
    for __ in range(NEAREST):
        track.sample()
    try:
        outcomes = drive(server, requests, track)
    finally:
        if undo is not None:
            undo()
    for __ in range(NEAREST):
        track.sample()
    bad = verify(server, requests, outcomes)
    scored = score(requests, outcomes, bad, tally, phase, track)
    scored["server"] = server
    scored["outcomes"] = outcomes
    scored["requests"] = requests
    return scored


def fill_span_buffer() -> None:
    """Bring the process to a long-running service's steady state.

    The ``obs`` tracer keeps finished spans in a bounded buffer. Until it
    is full the heap grows with every request, and the growing heap
    triggers full garbage collections whose pauses (tens of ms) land on
    a few unlucky requests and set the tail of a short window. A service
    that has been up for a while has a full buffer (new spans are
    counted as dropped), so the window is measured from there.
    """
    import gc

    from repro import obs

    tracer = obs.get_tracer()
    while tracer.dropped == 0:
        with obs.span("perfbench.warmup"):
            pass
    gc.collect()


def _obs_overhead(server, seed: int) -> tuple[float, float]:
    """Paired cheap requests with program telemetry on and off.

    Returns ``(on/off median latency ratio, spans per request)``.
    """
    from repro import obs
    from repro.datasets import make_loan_dataset

    pool = make_loan_dataset(2 * OBS_PAIRS, seed=seed + 7_777_777).X
    tracer = obs.get_tracer()
    on_ms, off_ms, spans = [], [], 0
    try:
        for k in range(OBS_PAIRS):
            order = (True, False) if k % 2 == 0 else (False, True)
            for j, enabled in enumerate(order):
                body = _body("cheap", pool[2 * k + j])
                obs.set_enabled(enabled)
                mark, dropped = tracer.mark(), tracer.dropped
                t0 = time.perf_counter()
                status, __, __ = server.handle_explain(body)
                elapsed = (time.perf_counter() - t0) * 1000.0
                if status != 200:
                    raise RuntimeError(f"paired request returned {status}")
                if enabled:
                    on_ms.append(elapsed)
                    spans += (tracer.mark() - mark) + (tracer.dropped
                                                       - dropped)
                else:
                    off_ms.append(elapsed)
    finally:
        obs.set_enabled(True)
    return median(on_ms) / median(off_ms), spans / OBS_PAIRS


def run(seed: int, seconds: float, trace: bool) -> dict:
    def build():
        data, models = _fit_models()
        return {"data": data, "models": models,
                "server": _make_server(data, models)}

    track = SpeedTrack()
    setups = SetupTimer(build, track)
    state = setups.run()
    state["track"] = track
    fill_span_buffer()
    tally = Tally()
    properties: dict = {"phases": {}}
    metrics: dict = {}

    untraced_seconds = seconds / 2 if trace else seconds
    plain = _window(state, seed, 0, untraced_seconds, tally, "untraced")
    properties["phases"]["untraced"] = plain["properties"]
    cheap, tree = plain["latency"]["cheap"], plain["latency"]["tree"]
    properties["latency_ms"] = {
        "reference_speed": _latency_summary(plain["latency"]),
        "as_measured": _latency_summary(plain["measured"]),
    }
    if not trace:
        setups.run()
        metrics["setup_s"] = (setups.median(), "s")
        properties["setup_s_as_measured"] = setups.measured_median()
        metrics["light_p50_ms"] = (median(cheap), "ms")
        metrics["light_p90_ms"] = (percentile(cheap, 0.90), "ms")
        metrics["heavy_p50_ms"] = (median(tree), "ms")
    else:
        from tracing import COUNTERS, Analysis, Recorder, \
            explain_layer_metrics

        recorder = Recorder()
        before = counter_values(COUNTERS)
        traced = _window(state, seed, 1, seconds, tally, "traced", recorder)
        counters = counter_delta(before)
        properties["phases"]["traced"] = traced["properties"]
        analysis = Analysis(recorder.spans)
        metrics.update(_serve_layer_metrics(traced, analysis))
        metrics.update(explain_layer_metrics(analysis, counters))
        metrics["bench.trace_overhead_ratio"] = (
            median(traced["latency"]["cheap"]) / median(cheap), "ratio")
        ratio, spans = _obs_overhead(traced["server"], seed)
        metrics["obs.overhead_ratio"] = (ratio, "ratio")
        metrics["obs.spans_per_request"] = (spans, "count")
    properties["limits_ms"] = LIMIT_MS
    properties["rates_per_s"] = RATES
    properties["kernel_ms"] = track.kernel_ms()
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "properties": properties,
    }


def _latency_summary(latency: dict) -> dict:
    cheap, tree = latency["cheap"], latency["tree"]
    return {"cheap_p50": median(cheap), "cheap_p90": percentile(cheap, 0.90),
            "cheap_p99": tail_or_none(cheap, 0.99),
            "tree_p50": median(tree), "tree_p90": tail_or_none(tree, 0.90)}


def _serve_layer_metrics(window: dict, an) -> dict:
    outcomes = window["outcomes"]
    served = [o for o in outcomes if o[0] == 200]
    metas = [o[1]["meta"] for o in served]
    n = max(len(metas), 1)
    out = {
        "serve.cache.hit_ratio": (
            sum(m["cache"] == "hit" for m in metas) / n, "ratio"),
        "serve.coalesced_ratio": (
            sum(m["cache"] == "coalesced" for m in metas) / n, "ratio"),
        "serve.degraded_ratio": (
            sum(bool(m["degraded"]) for m in metas) / n, "ratio"),
        "serve.dispatch_lag_ms.p99": (
            percentile([o[3] for o in outcomes], 0.99), "ms"),
    }
    waits = [(s.t1 - s.t0) * 1000.0 for s in an.named("serve.admit")]
    out["serve.admission_wait_ms.p99"] = (percentile(waits, 0.99), "ms")
    self_ms = []
    for s in an.named("serve.handle"):
        kids = [(c.t0, c.t1) for c in an.children.get(s.sid, ())
                if c.name == "serve.compute"]
        self_ms.append(self_time(s.t0, s.t1, kids) * 1000.0)
    out["serve.self_ms.p50"] = (median(self_ms), "ms")
    for name in RATES:
        compute = [(s.t1 - s.t0) * 1000.0
                   for s in an.named("serve.compute", name)]
        out[f"serve.compute_ms.p50.{name}"] = (median(compute), "ms")
    return out
