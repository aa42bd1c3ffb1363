"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_online --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the program as shipped and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` measures half a
window untraced and then a whole window with each layer's entry points
wrapped (see ``tracing.py``) and prints every per-layer metric of
``BENCHMARK.json``.
Every workload fills the same end-to-end metrics from its own
operations; a per-layer metric of a layer the workload does not reach
reads 0. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed. A copy of the result,
with the environment and the measured workload properties, is written
under ``perfbench/results/``.

This launcher fixes the environment before anything numeric is
imported: every ``REPRO_*`` variable is removed (the program runs at
its defaults) and the BLAS/OpenMP thread pools are pinned to one thread.
"""

from __future__ import annotations

import os
import sys

for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Compiled bytecode goes under the benchmark's own directory, not src/.
sys.pycache_prefix = os.path.join(HERE, ".pycache")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402

WORKLOADS = ("serve_online", "batch_offline", "provenance_mixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def manifest_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` asks this run
    to print: end-to-end untraced, per-layer traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"no program under {ROOT}/src/repro; run from a "
                         "checkout of the repository\n")
        return 2
    from common import collect_metrics, environment

    trace = bool(args.trace)
    wanted = manifest_metrics(trace)
    module = importlib.import_module(args.workload)
    outcome = module.run(args.seed, args.seconds, trace)
    reached = module.PER_LAYER if trace else tuple(wanted)
    metrics = collect_metrics(outcome, wanted, reached, trace)
    correct = not outcome["problems"]
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT),
        "properties": outcome["properties"],
        "problems": outcome["problems"],
        "result": result,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("properties " + json.dumps(outcome["properties"], sort_keys=True))
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
