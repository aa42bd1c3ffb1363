"""Workload ``provenance_mixed``: one analyst over the provenance engine.

A closed loop (each operation waits for the previous one) over a
``N_FACT``-tuple fact relation joined to a small dimension relation,
plus a three-level derivation DAG (base tuples -> ``mid`` -> ``top``)
served by an ``IntervalIndex``. Operations come in shuffled blocks with
an exact mix (``BLOCK``):

* planned reads — ``Query(...).execute()`` with an equality, a range or
  an equality followed by a join — and lineage reads
  (``IntervalIndex.supports`` / ``ancestors``);
* XAI queries — ``why_not`` and ``explain_aggregate``;
* writes, 20% of operations — ``Relation.insert`` / ``delete`` and
  ``IntervalIndex.insert_leaf`` / ``delete_leaf``.

Writes beside reads make a read-side index gain pay its maintenance.
The first operation of each checked kind in every block is compared
with the naive oracle the engine keeps (``legacy_*``), outside the
timed region.

End-to-end metrics: ``light_p50_ms`` and ``light_p90_ms`` are the median
and 90th percentile of the read operations, ``heavy_p50_ms`` the median
over blocks of the mean time of a block's XAI queries. Write latencies
are recorded with the result and measured per layer in the traced run.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from calibrate import NEAREST, SpeedTrack
from common import SetupTimer, Tally, counter_delta, counter_values
from stats import median, percentile, tail_or_none

N_FACT = 10_000
N_REGIONS = 8
N_PRODUCTS = 20
N_MID = N_FACT // 10
N_TOP = N_MID // 10
READS = ("eq", "range", "join", "supports", "ancestors")
WRITES = ("insert", "delete", "insert_leaf", "delete_leaf")
EXPLAINS = ("why_not", "aggregate")
BLOCK = {
    "eq": 60, "range": 40, "join": 20, "supports": 18, "ancestors": 18,
    "insert": 10, "delete": 10, "insert_leaf": 10, "delete_leaf": 10,
    "why_not": 1, "aggregate": 3,
}
CHECKED = ("eq", "range", "join", "supports", "ancestors", "why_not")
PER_LAYER = (
    "db.read_ms.p50.eq", "db.read_ms.p50.range", "db.read_ms.p50.join",
    "db.lineage_us.p50", "db.why_not_ms.p50", "db.aggregate_ms.p50",
    "db.write_ms.p50.insert", "db.write_ms.p50.delete",
    "db.lineage_write_us.p50", "db.index.hit_ratio", "db.index.builds",
    "db.index.maintained", "bench.trace_overhead_ratio",
)
COUNTERS = ("db.index.hits", "db.index.misses", "db.index.builds",
            "db.index.maintained")


def _fact_row(rng, oid: int) -> tuple:
    return (
        oid,
        f"r{int(rng.integers(N_REGIONS))}",
        f"p{int(rng.integers(N_PRODUCTS))}",
        round(float(rng.gamma(2.0, 50.0)), 2),
        int(rng.integers(1, 10)),
    )


def _build(seed: int) -> dict:
    from repro.db import Eq, IntervalIndex, ProvenanceDAG, Query, Range, \
        Relation

    rng = np.random.default_rng([seed, 0])
    fact = Relation(["oid", "region", "product", "amount", "qty"],
                    [_fact_row(rng, i) for i in range(N_FACT)], name="F")
    dim = Relation(
        ["region", "zone", "manager"],
        [(f"r{i}", f"z{i % 3}", f"m{i}") for i in range(N_REGIONS)],
        name="D",
    )
    # Warm the indexes every read kind uses.
    Query(fact).select(Eq("product", "p0")).execute()
    Query(fact).select(Range("amount", 0.0, 1.0)).execute()
    Query(fact).select(Eq("product", "p0")).join(dim).execute()
    dag = ProvenanceDAG()
    for m in range(N_MID):
        dag.add_node(("mid", m), [("base", m * 10 + k) for k in range(10)])
    for t in range(N_TOP):
        dag.add_node(("top", t), [("mid", t * 10 + k) for k in range(10)])
    return {"fact": fact, "dim": dim, "dag": dag,
            "index": IntervalIndex(dag), "next_oid": N_FACT,
            "next_leaf": 0, "new_leaves": deque(), "deleted_base": set()}


def _why_not_steps(dim):
    from repro.db import Eq, QueryStep, Range

    return [
        QueryStep.select("large orders", Range("amount", 80.0, None)),
        QueryStep.join("with region", dim),
        QueryStep.select("zone z0", Eq("zone", "z0")),
        QueryStep.project("report", ["oid", "zone", "amount"]),
    ]


def _mean_amount(relation) -> float:
    at = relation.columns.index("amount")
    return sum(row[at] for row in relation.rows) / max(len(relation), 1)


def _alive_base(state, rng):
    while True:
        i = int(rng.integers(N_FACT))
        if i not in state["deleted_base"]:
            return ("base", i)


class Operations:
    """Draws each operation's arguments, runs it, and checks it."""

    def __init__(self, state, rng) -> None:
        from repro import db

        self.db = db
        self.state = state
        self.rng = rng
        self.steps = _why_not_steps(state["dim"])
        self.aggregate_checked = False

    def prepare(self, kind: str):
        """The operation as a zero-argument callable plus its check."""
        db, s, rng = self.db, self.state, self.rng
        fact, dim, index = s["fact"], s["dim"], s["index"]
        if kind in ("eq", "range", "join"):
            product = f"p{int(rng.integers(N_PRODUCTS))}"
            if kind == "eq":
                query = db.Query(fact).select(db.Eq("product", product))
            elif kind == "range":
                lo = round(float(rng.uniform(0.0, 250.0)), 2)
                query = db.Query(fact).select(db.Range("amount", lo, lo + 8.0))
            else:
                query = db.Query(fact).select(
                    db.Eq("product", product)).join(dim)

            def check(out):
                legacy = query.legacy_execute()
                return (out.rows == legacy.rows
                        and out.annotations == legacy.annotations)
            return query.execute, check
        if kind in ("supports", "ancestors"):
            node = _alive_base(s, rng)
            if kind == "supports":
                def check(out):
                    return set(out) == set(
                        db.index.legacy_supports(index.dag, node))
                return (lambda: index.supports(node)), check

            def check(out):
                return out == db.index.legacy_ancestors(index.dag, node)
            return (lambda: index.ancestors(node)), check
        if kind == "why_not":
            candidate = db.And(
                db.Eq("product", f"p{int(rng.integers(N_PRODUCTS))}"),
                db.Eq("region", f"r{int(rng.integers(N_REGIONS))}"))

            def check(out):
                legacy = db.legacy_why_not(fact, self.steps, candidate)
                return ([(r.candidate_index, r.picky_step) for r in out]
                        == [(r.candidate_index, r.picky_step)
                            for r in legacy])
            return (lambda: db.why_not(fact, self.steps, candidate)), check
        if kind == "aggregate":
            def check(out):
                legacy = db.legacy_explain_aggregate(fact, _mean_amount)
                return ([(e.description, e.n_removed, e.score) for e in out]
                        == [(e.description, e.n_removed, e.score)
                            for e in legacy])
            return (lambda: db.explain_aggregate(fact, _mean_amount)), check
        if kind == "insert":
            row = _fact_row(rng, s["next_oid"])
            s["next_oid"] += 1
            return (lambda: fact.insert(row)), None
        if kind == "delete":
            at = int(rng.integers(len(fact)))
            return (lambda: fact.delete(at)), None
        if kind == "insert_leaf":
            parent = ("mid", int(rng.integers(N_MID)))
            leaf = ("new", s["next_leaf"])
            s["next_leaf"] += 1

            def insert_leaf():
                index.insert_leaf(parent, leaf)
                s["new_leaves"].append(leaf)
            return insert_leaf, None
        if kind == "delete_leaf":
            if s["new_leaves"]:
                leaf = s["new_leaves"].popleft()
            else:
                leaf = _alive_base(s, rng)
                s["deleted_base"].add(leaf[1])
            return (lambda: index.delete_leaf(leaf)), None
        raise ValueError(kind)

    def wants_check(self, kind: str, first_in_block: bool) -> bool:
        if kind == "aggregate":
            if self.aggregate_checked:
                return False
            self.aggregate_checked = True
            return True
        return first_in_block and kind in CHECKED


def loop(state, rng, seconds, tally, phase, recorder=None) -> dict:
    """Shuffled blocks until ``seconds`` have passed; per kind, every
    timed operation as ``(block, midpoint, ms)``. The host's speed is
    sampled between operations."""
    ops = Operations(state, rng)
    track = state["track"]
    latency = {kind: [] for kind in BLOCK}
    mix = {kind: 0 for kind in BLOCK}
    block = [kind for kind, n in BLOCK.items() for __ in range(n)]
    for __ in range(NEAREST):
        track.sample()
    deadline = time.perf_counter() + seconds
    blocks = 0
    while time.perf_counter() < deadline:
        order = [block[i] for i in rng.permutation(len(block))]
        seen: set = set()
        for kind in order:
            if time.perf_counter() >= deadline:
                break
            fn, check = ops.prepare(kind)
            track.maybe()
            verify = check is not None and ops.wants_check(
                kind, kind not in seen)
            seen.add(kind)
            mix[kind] += 1
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # an operation that raises fails
                tally.add(False, f"{phase}: {kind} raised "
                                 f"{type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            if recorder is not None:
                recorder.record(f"db.{kind}", None, t0, t1)
            latency[kind].append((blocks, (t0 + t1) / 2,
                                  (t1 - t0) * 1000.0))
            if verify and not check(out):
                tally.add(False, f"{phase}: {kind} differs from the "
                                 "naive oracle")
            else:
                tally.add(True)
        blocks += 1
    for __ in range(NEAREST):
        track.sample()
    return {"latency": latency, "mix": mix, "blocks": blocks}


def _pooled(latency: dict, kinds, track=None) -> list:
    """The ms of every operation of ``kinds``; with ``track``, at the
    reference speed."""
    if track is None:
        return [ms for kind in kinds for __, __, ms in latency[kind]]
    return [track.scale(mid, ms) for kind in kinds
            for __, mid, ms in latency[kind]]


def explain_ms_per_block(latency: dict, track=None) -> list:
    """For every block that ran all its XAI queries, their mean ms (with
    ``track``, at the reference speed). Averaging within a block weighs
    ``why_not`` and ``explain_aggregate`` by the mix."""
    per_block: dict = {}
    for kind in EXPLAINS:
        for block, mid, ms in latency[kind]:
            if track is not None:
                ms = track.scale(mid, ms)
            per_block.setdefault(block, []).append(ms)
    full = sum(BLOCK[kind] for kind in EXPLAINS)
    return [sum(v) / full for v in per_block.values() if len(v) == full]


def _summary(latency: dict, track=None) -> dict:
    reads = _pooled(latency, READS, track)
    writes = _pooled(latency, WRITES, track)
    return {"read_p50": median(reads), "read_p90": percentile(reads, 0.90),
            "explain_p50": median(_pooled(latency, EXPLAINS, track)),
            "explain_block_mean_p50": median(
                explain_ms_per_block(latency, track)),
            "write_p50": median(writes),
            "write_p99": tail_or_none(writes, 0.99)}


def run(seed: int, seconds: float, trace: bool) -> dict:
    track = SpeedTrack()
    setups = SetupTimer(lambda: _build(seed), track)
    state = setups.run()
    state["track"] = track
    rng = np.random.default_rng([seed, 1])
    tally = Tally()
    metrics: dict = {}
    properties: dict = {"phases": {}, "block": BLOCK,
                        "fact_tuples": N_FACT}

    untraced_seconds = seconds / 2 if trace else seconds
    plain = loop(state, rng, untraced_seconds, tally, "untraced")
    properties["phases"]["untraced"] = _phase_properties(plain)
    properties["latency_ms"] = {
        "reference_speed": _summary(plain["latency"], track),
        "as_measured": _summary(plain["latency"]),
    }
    reads = _pooled(plain["latency"], READS, track)
    if not trace:
        setups.run()
        metrics["setup_s"] = (setups.median(), "s")
        properties["setup_s_as_measured"] = setups.measured_median()
        metrics["light_p50_ms"] = (median(reads), "ms")
        metrics["light_p90_ms"] = (percentile(reads, 0.90), "ms")
        metrics["heavy_p50_ms"] = (
            median(explain_ms_per_block(plain["latency"], track)), "ms")
    else:
        from tracing import Recorder

        recorder = Recorder()
        before = counter_values(COUNTERS)
        traced = loop(state, rng, seconds, tally, "traced", recorder)
        counters = counter_delta(before)
        properties["phases"]["traced"] = _phase_properties(traced)
        metrics.update(_db_layer_metrics(recorder, counters))
        metrics["bench.trace_overhead_ratio"] = (
            median(_pooled(traced["latency"], READS, track))
            / median(reads), "ratio")
    properties["kernel_ms"] = track.kernel_ms()
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "properties": properties,
    }


def _db_layer_metrics(recorder, counters: dict) -> dict:
    spans: dict = {}
    for s in recorder.spans:
        spans.setdefault(s.name[3:], []).append(s.t1 - s.t0)

    def p50(kinds, scale):
        return median([v * scale for k in kinds for v in spans.get(k, ())])

    out = {f"db.read_ms.p50.{k}": (p50([k], 1e3), "ms")
           for k in ("eq", "range", "join")}
    out["db.lineage_us.p50"] = (p50(["supports", "ancestors"], 1e6), "us")
    out["db.why_not_ms.p50"] = (p50(["why_not"], 1e3), "ms")
    out["db.aggregate_ms.p50"] = (p50(["aggregate"], 1e3), "ms")
    for k in ("insert", "delete"):
        out[f"db.write_ms.p50.{k}"] = (p50([k], 1e3), "ms")
    out["db.lineage_write_us.p50"] = (
        p50(["insert_leaf", "delete_leaf"], 1e6), "us")
    looked_up = counters["db.index.hits"] + counters["db.index.misses"]
    out["db.index.hit_ratio"] = (
        counters["db.index.hits"] / looked_up if looked_up else 0.0, "ratio")
    out["db.index.builds"] = (counters["db.index.builds"], "count")
    out["db.index.maintained"] = (counters["db.index.maintained"], "count")
    return out


def _phase_properties(result: dict) -> dict:
    mix = result["mix"]
    total = sum(mix.values()) or 1
    return {
        "blocks": result["blocks"],
        "operations": mix,
        "read_share": sum(mix[k] for k in READS) / total,
        "write_share": sum(mix[k] for k in WRITES) / total,
        "explain_share": sum(mix[k] for k in EXPLAINS) / total,
    }
