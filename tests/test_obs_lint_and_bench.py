"""Tier-1 enforcement of the no-print and exception-hygiene lints, the
telemetry writers, and the benchmark wall-time regression guard."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.obs import bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "scripts", "check_no_print.py")
HYGIENE = os.path.join(REPO_ROOT, "scripts", "check_exception_hygiene.py")
SHAPLEY_LINT = os.path.join(
    REPO_ROOT, "scripts", "check_no_bespoke_shapley.py"
)
DB_SCAN_LINT = os.path.join(REPO_ROOT, "scripts", "check_db_scans.py")
PERSIST_LINT = os.path.join(REPO_ROOT, "scripts", "check_serializable.py")
BENCH_COMPARE = os.path.join(REPO_ROOT, "scripts", "bench_compare.py")


def _load_script(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_lint():
    return _load_script(LINT, "check_no_print")


def test_src_repro_is_print_free():
    """Diagnostics must flow through repro.obs, not stdout."""
    result = subprocess.run(
        [sys.executable, LINT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_lint_catches_a_bare_print(tmp_path):
    lint = _load_lint()
    bad = tmp_path / "module.py"
    bad.write_text("def f():\n    print('debug')\n", encoding="utf-8")
    assert lint.offenders(str(tmp_path)) == [f"{bad}:2"]
    # Strings/comments mentioning print( must not trip the AST walk,
    # and the human-output modules stay exempt.
    ok = tmp_path / "clean.py"
    ok.write_text("# print(x)\ns = 'print('\n", encoding="utf-8")
    allowed = tmp_path / "cli.py"
    allowed.write_text("print('fine')\n", encoding="utf-8")
    assert lint.offenders(str(tmp_path)) == [f"{bad}:2"]


def test_src_repro_has_clean_exception_hygiene():
    """No bare excepts or silent broad handlers in the library — or in
    the test suite (the no-arg default scans both roots)."""
    result = subprocess.run(
        [sys.executable, HYGIENE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_hygiene_lint_scans_multiple_roots(tmp_path):
    hygiene = _load_script(HYGIENE, "check_exception_hygiene")
    clean = tmp_path / "clean"
    dirty = tmp_path / "dirty"
    clean.mkdir()
    dirty.mkdir()
    (clean / "a.py").write_text("x = 1\n", encoding="utf-8")
    (dirty / "b.py").write_text("try:\n    f()\nexcept:\n    pass\n",
                                encoding="utf-8")
    assert hygiene.main([str(clean)]) == 0
    # Any number of explicit roots; one dirty root fails the run.
    assert hygiene.main([str(clean), str(dirty)]) == 1


def test_hygiene_lint_catches_silent_handlers(tmp_path):
    hygiene = _load_script(HYGIENE, "check_exception_hygiene")
    bad = tmp_path / "module.py"
    bad.write_text(
        "try:\n    f()\nexcept:\n    handle()\n"
        "try:\n    g()\nexcept Exception:\n    pass\n"
        "try:\n    h()\nexcept (ValueError, BaseException):\n    ...\n",
        encoding="utf-8",
    )
    found = hygiene.offenders(str(tmp_path))
    assert [f.split(" ", 1) for f in found] == [
        [f"{bad}:3", "bare except:"],
        [f"{bad}:7", "except Exception with silent (pass-only) body"],
        [f"{bad}:11", "except Exception with silent (pass-only) body"],
    ]


def test_hygiene_lint_accepts_handled_and_allowlisted(tmp_path):
    hygiene = _load_script(HYGIENE, "check_exception_hygiene")
    ok = tmp_path / "clean.py"
    ok.write_text(
        # Narrow types, even with pass bodies, show intent.
        "try:\n    f()\nexcept (TypeError, ValueError):\n    pass\n"
        # Broad but visibly handled.
        "try:\n    g()\nexcept Exception as e:\n    raise RuntimeError from e\n"
        # Broad + silent, but explicitly allowlisted.
        "try:\n    h()\nexcept Exception:  # hygiene: allow\n    pass\n"
        # Strings mentioning the pattern must not trip the AST walk.
        "s = 'except:'\n",
        encoding="utf-8",
    )
    assert hygiene.offenders(str(tmp_path)) == []


def test_src_repro_has_no_bespoke_shapley_loops():
    """Permutation-accumulation loops must live in repro.games only."""
    result = subprocess.run(
        [sys.executable, SHAPLEY_LINT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_shapley_lint_catches_bespoke_loops(tmp_path):
    lint = _load_script(SHAPLEY_LINT, "check_no_bespoke_shapley")
    bad = tmp_path / "module.py"
    bad.write_text(
        "def estimate(value_fn, n, rng):\n"
        "    sums = np.zeros(n)\n"
        "    for _ in range(10):\n"
        "        perm = rng.permutation(n)\n"
        "        for pos, point in enumerate(perm):\n"
        "            sums[point] += value_fn(pos)\n"
        "    return sums / 10\n",
        encoding="utf-8",
    )
    found = lint.offenders(str(tmp_path))
    assert len(found) >= 1 and all(f"{bad}:4 " in f for f in found)
    # Taint flows through intermediate assignments and reversal too.
    indirect = tmp_path / "indirect.py"
    indirect.write_text(
        "def estimate(v, n, rng):\n"
        "    phi = np.zeros(n)\n"
        "    order = rng.permutation(n)\n"
        "    walks = [order, order[::-1]]\n"
        "    for w in walks:\n"
        "        phi[w] += v(w)\n"
        "    return phi\n",
        encoding="utf-8",
    )
    found = lint.offenders(str(tmp_path))
    assert any(f"{indirect}:3 " in f for f in found)


ALLOW_MARKED_LOOP = (
    "def legacy(v, n, rng):\n"
    "    sums = np.zeros(n)\n"
    "    perm = rng.permutation(n)  # games: allow\n"
    "    for p in perm:\n"
    "        sums[p] += v(p)\n"
    "    return sums\n"
)


def test_shapley_lint_accepts_benign_uses(tmp_path):
    lint = _load_script(SHAPLEY_LINT, "check_no_bespoke_shapley")
    ok = tmp_path / "clean.py"
    ok.write_text(
        # Shuffled minibatch SGD: the permutation orders rows, but the
        # accumulation index is a plain loop variable (the MLP pattern).
        "def fit(X, y, rng, grads):\n"
        "    idx = rng.permutation(len(X))\n"
        "    for i in range(3):\n"
        "        grads[i] += X[idx].sum()\n"
        "    return grads\n"
        # Permutation used for a baseline, assigned (not accumulated).
        "def baseline(scores, rng):\n"
        "    out = {}\n"
        "    perm = rng.permutation(len(scores))\n"
        "    out['shuffled'] = scores[perm]\n"
        "    return out\n"
        # Allow-marked reference loop outside the shipped package.
        + ALLOW_MARKED_LOOP,
        encoding="utf-8",
    )
    assert lint.offenders(str(tmp_path)) == []
    # The games package itself is exempt (that is where the loop lives).
    games_dir = tmp_path / "src" / "repro" / "games"
    games_dir.mkdir(parents=True)
    (games_dir / "estimators.py").write_text(
        "def walk(v, n, rng, sums):\n"
        "    perm = rng.permutation(n)\n"
        "    for p in perm:\n"
        "        sums[p] += v(p)\n",
        encoding="utf-8",
    )
    assert lint.offenders(str(tmp_path)) == []


def test_shapley_lint_ignores_allow_marker_in_package(tmp_path):
    """Under src/repro the ``# games: allow`` escape is not honoured."""
    lint = _load_script(SHAPLEY_LINT, "check_no_bespoke_shapley")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    legacy = package / "legacy.py"
    legacy.write_text(ALLOW_MARKED_LOOP, encoding="utf-8")
    found = lint.offenders(str(package))
    assert found and all(f"{legacy}:3 " in f for f in found)
    assert lint.main([str(package)]) == 1


def test_src_repro_db_has_no_naive_row_scans():
    """db consumers must go through the planner / index layer."""
    result = subprocess.run(
        [sys.executable, DB_SCAN_LINT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_db_scan_lint_catches_row_loops(tmp_path):
    lint = _load_script(DB_SCAN_LINT, "check_db_scans")
    bad = tmp_path / "module.py"
    bad.write_text(
        "def pick(relation, predicate):\n"
        "    out = [i for i, r in enumerate(relation.rows)\n"
        "           if predicate(r)]\n"
        "    for row in sorted(relation.rows):\n"
        "        out.append(row)\n"
        "    return out\n",
        encoding="utf-8",
    )
    found = lint.offenders(str(tmp_path))
    # Both the comprehension and the sorted()-wrapped for loop.
    assert len(found) == 2
    assert all("O(n) scan over Relation.rows" in f for f in found)
    assert any(f"{bad}:2 " in f for f in found)
    assert any(f"{bad}:4 " in f for f in found)


def test_db_scan_lint_accepts_sanctioned_scans(tmp_path):
    lint = _load_script(DB_SCAN_LINT, "check_db_scans")
    ok = tmp_path / "module.py"
    ok.write_text(
        # legacy_* oracles scan by design (differential-test baselines).
        "def legacy_pick(relation, p):\n"
        "    return [r for r in relation.rows if p(r)]\n"
        # Point lookups over index-provided ids are not scans.
        "def per_group(relation, members):\n"
        "    return [relation.rows[i] for i in members]\n"
        # Non-selection loops opt out with the marker.
        "def render(relation):\n"
        "    return [str(r) for r in relation.rows]  # db: allow\n",
        encoding="utf-8",
    )
    assert lint.offenders(str(tmp_path)) == []
    # The physical layer itself (relation/index/planner) is exempt.
    physical = tmp_path / "planner.py"
    physical.write_text(
        "def scan(relation, p):\n"
        "    return [r for r in relation.rows if p(r)]\n",
        encoding="utf-8",
    )
    assert lint.offenders(str(tmp_path)) == []


def test_persist_lint_resolves_names_own_module_first(tmp_path):
    """An unrelated same-named class in another module must not shadow
    a registered class's own definition (db.planner.Predicate vs the
    registered core.Predicate)."""
    lint = _load_script(PERSIST_LINT, "check_serializable")
    good = tmp_path / "a_core.py"
    good.write_text(
        "@register_serializable('core.Thing')\n"
        "class Thing(Serializable):\n"
        "    pass\n",
        encoding="utf-8",
    )
    shadow = tmp_path / "z_planner.py"
    shadow.write_text(
        "class Thing:\n"  # unregistered, no to_dict/from_dict — fine
        "    pass\n",
        encoding="utf-8",
    )
    assert lint.offenders(str(tmp_path)) == []
    # A registered class genuinely missing the pair still fails.
    bad = tmp_path / "a_core.py"
    bad.write_text(
        "@register_serializable('core.Thing')\n"
        "class Thing:\n"
        "    pass\n",
        encoding="utf-8",
    )
    found = lint.offenders(str(tmp_path))
    assert len(found) == 1 and "Thing" in found[0]


def test_atomic_write_replaces_not_appends(tmp_path):
    target = tmp_path / "out.txt"
    bench.atomic_write_text(str(target), "first")
    bench.atomic_write_text(str(target), "second")
    assert target.read_text(encoding="utf-8") == "second"
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_benchmark_result_txt_and_json(tmp_path):
    json_path = bench.write_benchmark_result(
        str(tmp_path),
        "E99_test",
        ["col_a col_b", "1 2"],
        data={"col_a": [1], "col_b": [2]},
        wall_s=0.5,
        counters={"model_calls": 3, "model_rows": 30},
    )
    txt = (tmp_path / "E99_test.txt").read_text(encoding="utf-8")
    assert txt.startswith("==== E99_test ====\n# experiment: E99_test")
    assert "generated:" in txt
    payload = json.loads((tmp_path / "E99_test.json").read_text())
    assert payload["experiment"] == "E99_test"
    assert payload["wall_s"] == 0.5
    assert payload["counters"] == {"model_calls": 3, "model_rows": 30}
    assert payload["data"] == {"col_a": [1], "col_b": [2]}
    assert payload["timestamp"].startswith("20")
    assert json_path.endswith("E99_test.json")


def test_update_bench_summary_merges(tmp_path):
    path = str(tmp_path / "BENCH_summary.json")
    bench.update_bench_summary(path, "E1_a", {"wall_s": 1.0,
                                              "timestamp": "t1"})
    bench.update_bench_summary(path, "E2_b", {"wall_s": 2.0,
                                              "timestamp": "t2"})
    bench.update_bench_summary(path, "E1_a", {"wall_s": 0.5,
                                              "timestamp": "t3"})
    merged = json.loads(open(path, encoding="utf-8").read())
    assert merged["n_experiments"] == 2
    assert merged["experiments"]["E1_a"]["wall_s"] == 0.5
    assert merged["updated"] == "t3"


def test_update_bench_summary_survives_corrupt_file(tmp_path):
    path = tmp_path / "BENCH_summary.json"
    path.write_text("{not json", encoding="utf-8")
    merged = bench.update_bench_summary(str(path), "E1_a",
                                        {"timestamp": "t"})
    assert merged["experiments"]["E1_a"] == {"timestamp": "t"}
    json.loads(path.read_text(encoding="utf-8"))


def test_benchmarks_emit_writes_all_three_artifacts(tmp_path, monkeypatch,
                                                    capsys):
    """Drive benchmarks/conftest.emit end-to-end against temp paths."""
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", os.path.join(bench_dir, "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(module, "BENCH_SUMMARY",
                        str(tmp_path / "BENCH_summary.json"))
    module.emit("E98_probe", ["a b", "1 2"], data={"a": [1]})
    out = capsys.readouterr().out
    assert "==== E98_probe ====" in out
    payload = json.loads(
        (tmp_path / "results" / "E98_probe.json").read_text()
    )
    assert payload["data"] == {"a": [1]}
    summary = json.loads((tmp_path / "BENCH_summary.json").read_text())
    assert "E98_probe" in summary["experiments"]


def test_bench_compare_passes_on_committed_baseline():
    """The in-repo BENCH_summary must not regress vs the committed baseline."""
    result = subprocess.run(
        [sys.executable, BENCH_COMPARE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_bench_compare_detects_regression(tmp_path):
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {"E37_coalition_engine": {"wall_s": 2.0}}
    slowed = {"E37_coalition_engine": {"wall_s": 3.2}}
    found = compare.regressions(baseline, slowed)
    assert len(found) == 1 and "E37_coalition_engine" in found[0]
    # …and the CLI agrees.
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps({"experiments": baseline}))
    fresh_path.write_text(json.dumps({"experiments": slowed}))
    assert compare.main(
        ["--baseline", str(base_path), "--fresh", str(fresh_path)]
    ) == 1


def test_bench_compare_tolerates_noise_and_gaps(tmp_path):
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {
        "E2_kernel_convergence": {"wall_s": 0.02},
        "E3_treeshap_speed": {"wall_s": 10.0},
    }
    fresh = {
        # 10× slower but under the absolute floor: sub-second noise.
        "E2_kernel_convergence": {"wall_s": 0.2},
        # 10% slower: under the relative threshold.
        "E3_treeshap_speed": {"wall_s": 11.0},
        # Not in baseline at all: skipped.
        "E37_coalition_engine": {"wall_s": 99.0},
    }
    assert compare.regressions(baseline, fresh) == []
    # Faster is never a failure.
    assert compare.regressions(
        {"E3_treeshap_speed": {"wall_s": 10.0}},
        {"E3_treeshap_speed": {"wall_s": 1.0}},
    ) == []
    # Missing/corrupt files load as empty and therefore pass.
    assert compare.load_summary(str(tmp_path / "nope.json")) == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert compare.load_summary(str(bad)) == {}
    assert compare.main(["--baseline", str(bad), "--fresh", str(bad)]) == 0


def test_bench_compare_enforces_speedup_floors():
    """Headline ratios (e.g. E45's indexed_speedup) have absolute floors."""
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    assert compare.FLOORS["E45_indexed_provenance"]["indexed_speedup"] == 10.0
    healthy = {"E45_indexed_provenance": {"indexed_speedup": 400.0}}
    assert compare.floor_shortfalls(healthy) == []
    eroded = {"E45_indexed_provenance": {"indexed_speedup": 4.0}}
    found = compare.floor_shortfalls(eroded)
    assert len(found) == 1
    assert "indexed_speedup" in found[0] and "10.0x floor" in found[0]
    # An experiment (or key) that was not freshly run is skipped.
    assert compare.floor_shortfalls({"E45_indexed_provenance": {}}) == []
    assert compare.floor_shortfalls({}) == []


def test_bench_compare_warns_on_missing_baseline(tmp_path, capfd):
    """A guarded experiment without a committed baseline is skipped loudly."""
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {"E3_treeshap_speed": {"wall_s": 10.0}}
    fresh = {
        "E3_treeshap_speed": {"wall_s": 10.0},
        "E38_fault_tolerance": {"wall_s": 5.0},
    }
    assert compare.missing_baselines(baseline, fresh) == [
        "E38_fault_tolerance"
    ]
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps({"experiments": baseline}))
    fresh_path.write_text(json.dumps({"experiments": fresh}))
    # Missing baseline warns but does not fail the guard.
    assert compare.main(
        ["--baseline", str(base_path), "--fresh", str(fresh_path)]
    ) == 0
    err = capfd.readouterr().err
    assert "E38_fault_tolerance" in err and "warning" in err


@pytest.mark.parametrize("value,bucket_positive", [(0.5, True), (100.0, True)])
def test_histogram_buckets_cover(value, bucket_positive):
    from repro.obs.metrics import Histogram

    h = Histogram("t")
    h.observe(value)
    assert (sum(h.buckets) == 1) is bucket_positive


def test_bench_compare_floors_stacked_tree_predict():
    """E42's stacked tree predict must stay >=3x the per-row walk."""
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    assert compare.FLOORS["E42_tree_predict"]["tree_predict_speedup"] == 3.0
    assert compare.floor_shortfalls(
        {"E42_tree_predict": {"tree_predict_speedup": 40.0}}) == []
    found = compare.floor_shortfalls(
        {"E42_tree_predict": {"tree_predict_speedup": 1.2}})
    assert len(found) == 1 and "tree_predict_speedup" in found[0]


def test_bench_compare_floors_single_row_explain():
    """E42's batch-of-one explain must stay >=3x the per-walk oracle."""
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    floors = compare.FLOORS["E42_amortized_batch"]
    assert floors["sampling_single_speedup"] == 3.0
    assert floors["sampling_speedup"] == 3.0
    fresh = {"sampling_speedup": 20.0, "tree_speedup": 30.0,
             "sampling_single_speedup": 9.0}
    assert compare.floor_shortfalls({"E42_amortized_batch": fresh}) == []
    found = compare.floor_shortfalls({"E42_amortized_batch": dict(
        fresh, sampling_single_speedup=1.5)})
    assert len(found) == 1 and "sampling_single_speedup" in found[0]
