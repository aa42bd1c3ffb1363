"""E37 — Vectorized coalition evaluation vs the legacy evaluation path.

Claim: at an equal coalition budget, broadcast masking + coalition
dedupe + chunked batching make coalition-based explainers ≥2× faster
than the historical per-coalition loop, without changing a single output
bit. Dedupe is the big lever for permutation sampling: every walk
re-evaluates ∅ and N, and antithetic pairs plus short prefixes collide
constantly at tabular feature counts, so the shared coalition plan keeps
fewer than half of the walk evaluations as distinct masks.

The legacy side is the pre-engine per-walk loop (loop expansion, one
unchunked predict call per walk, no dedupe), kept as a test oracle in
``tests/oracles/coalition_walk.py``; the engine side is the explainers'
one evaluation path.
"""

import os
import sys
import time

import numpy as np

from repro import obs
from repro.datasets import make_loan_dataset
from repro.models import GradientBoostingClassifier
from repro.shapley import KernelShapExplainer, SamplingShapleyExplainer

from conftest import emit, fmt_row

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles.coalition_walk import (  # noqa: E402
    kernel_explain,
    sampling_explain,
)

N_PERMUTATIONS = 100
KERNEL_BUDGET = 126


def _timed(explain, x):
    """(attribution, wall seconds, rows evaluated) for one explain call."""
    rows_before = obs.counter("model.rows").value
    t0 = time.perf_counter()
    attribution = explain(x)
    wall = time.perf_counter() - t0
    return attribution, wall, obs.counter("model.rows").value - rows_before


def test_e37_engine_speedup(loan_setup):
    data, __, gbm = loan_setup
    x = data.X[1]

    common = dict(
        n_permutations=N_PERMUTATIONS, max_background=100, seed=3
    )
    legacy = SamplingShapleyExplainer(gbm, data.X, **common)
    engine = SamplingShapleyExplainer(gbm, data.X, **common)

    att_legacy, wall_legacy, rows_legacy = _timed(
        lambda q: sampling_explain(legacy, q, engine=False), x
    )
    hits_before = obs.counter("coalition.cache.hits").value
    misses_before = obs.counter("coalition.cache.misses").value
    att_engine, wall_engine, rows_engine = _timed(engine.explain, x)
    cache_hits = obs.counter("coalition.cache.hits").value - hits_before
    cache_misses = obs.counter("coalition.cache.misses").value - misses_before
    (plan,) = engine._plan_store.values()
    walk_evaluations = plan.n_walks * (plan.n_players + 1)

    # Equal budget, identical numbers: the engine is a pure perf change.
    assert np.array_equal(att_engine.values, att_legacy.values)
    speedup = wall_legacy / wall_engine

    # Kernel SHAP at full enumeration: coalitions are all distinct, so
    # this row isolates the broadcast-expansion win without cache help.
    k_common = dict(n_samples=KERNEL_BUDGET, max_background=100, seed=3)
    k_legacy = KernelShapExplainer(gbm, data.X, **k_common)
    k_engine = KernelShapExplainer(gbm, data.X, **k_common)
    k_att_legacy, k_wall_legacy, k_rows_legacy = _timed(
        lambda q: kernel_explain(k_legacy, q, engine=False), x
    )
    k_att_engine, k_wall_engine, k_rows_engine = _timed(k_engine.explain, x)
    assert np.array_equal(k_att_engine.values, k_att_legacy.values)
    k_speedup = k_wall_legacy / k_wall_engine

    rows = [
        fmt_row("explainer", "path", "wall s", "rows evald", "speedup"),
        fmt_row("sampling_shap", "legacy", wall_legacy, rows_legacy, 1.0),
        fmt_row("sampling_shap", "engine", wall_engine, rows_engine, speedup),
        fmt_row("kernel_shap", "legacy", k_wall_legacy, k_rows_legacy, 1.0),
        fmt_row("kernel_shap", "engine", k_wall_engine, k_rows_engine,
                k_speedup),
        fmt_row("cache", "hits", cache_hits, "misses", cache_misses),
        fmt_row("plan", "unique", plan.n_unique, "walk evals",
                walk_evaluations),
    ]
    emit("E37_coalition_engine", rows, data={
        "n_permutations": N_PERMUTATIONS,
        "kernel_budget": KERNEL_BUDGET,
        "sampling": {
            "wall_s_legacy": wall_legacy,
            "wall_s_engine": wall_engine,
            "rows_legacy": int(rows_legacy),
            "rows_engine": int(rows_engine),
            "speedup": speedup,
        },
        "kernel": {
            "wall_s_legacy": k_wall_legacy,
            "wall_s_engine": k_wall_engine,
            "rows_legacy": int(k_rows_legacy),
            "rows_engine": int(k_rows_engine),
            "speedup": k_speedup,
        },
        "cache_hits": int(cache_hits),
        "cache_misses": int(cache_misses),
        "plan_unique_masks": plan.n_unique,
        "walk_evaluations": walk_evaluations,
    })

    # The headline claim: ≥2× at equal budget, with dedupe doing the
    # heavy lifting (fewer than half the walk evaluations are distinct
    # masks, i.e. plan cache hits outnumber misses).
    assert speedup >= 2.0
    assert plan.n_unique < walk_evaluations / 2
    assert cache_hits > cache_misses
    assert rows_engine < rows_legacy / 2
