"""Frozen golden attributions, byte-stable across execution backends.

Each golden in ``tests/goldens/`` is the fully seeded output of one
end-to-end explanation family (kernel SHAP, sampling SHAP, TMC Data
Shapley, tuple Shapley, causal Shapley, LIME, path-dependent and
interventional TreeSHAP), frozen as a :mod:`repro.persist` artifact —
the explanation object itself in a type-tag envelope — and regenerated
only by a deliberate ``scripts/regen_goldens.py`` run. The case
definitions are imported from that script, so the regeneration fixtures
and the assertions can never drift apart. Loading a golden therefore exercises the persist
``from_dict`` path end to end: the comparison below is live explainer
output against a *deserialized* explanation object.

Two regressions are caught at 1e-12:

* a numeric drift in any explainer (refactors must be value-preserving
  unless the golden is consciously re-frozen), and
* any cross-backend divergence — every case is re-run under the serial,
  thread, process (fork), and spawn backends and held to the *same*
  frozen numbers, which is the exec subsystem's bitwise-identity
  contract expressed as an end-to-end test.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from repro.core.explanation import DataAttribution, FeatureAttribution
from repro.persist import loads

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "goldens")
REGEN = os.path.join(REPO_ROOT, "scripts", "regen_goldens.py")

ATOL = 1e-12


def _load_regen():
    spec = importlib.util.spec_from_file_location("regen_goldens", REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()

BACKENDS = ("serial", "thread", "process", "spawn")

# What each golden artifact must deserialize into — a registered
# explanation class for the attribution families, a plain dict for the
# tuple-Shapley scores and the frozen db planner explain_plan() texts.
ARTIFACT_KINDS = {
    "kernel_shap": FeatureAttribution,
    "sampling_shap": FeatureAttribution,
    "tmc_datashapley": DataAttribution,
    "tuple_shapley": dict,
    "causal_shapley": FeatureAttribution,
    "lime": FeatureAttribution,
    "db_plans": dict,
    "tree_shap": dict,
}


def _golden(name: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def _assert_matches(expected, actual, context: str):
    assert set(expected) == set(actual), context
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, str) or isinstance(got, str):
            # The db plan goldens freeze explain_plan() text verbatim.
            assert want == got, (
                f"{context}[{key}]: expected {want!r}, got {got!r}"
            )
            continue
        assert np.allclose(np.asarray(want, dtype=float),
                           np.asarray(got, dtype=float),
                           atol=ATOL, rtol=0.0), (
            f"{context}[{key}]: expected {want}, got {got}"
        )


def test_every_case_has_a_golden_and_vice_versa():
    on_disk = {f[:-5] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json")}
    assert on_disk == set(regen.CASES)
    assert set(ARTIFACT_KINDS) == set(regen.CASES)


@pytest.mark.parametrize("name", sorted(ARTIFACT_KINDS))
def test_goldens_deserialize_into_explanation_objects(name):
    golden = _golden(name)
    assert golden["case"] == name
    assert isinstance(golden["artifact"], ARTIFACT_KINDS[name])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_attributions(name, backend):
    golden = _golden(name)
    assert golden["case"] == name
    outputs = regen.CASES[name](backend=backend)
    _assert_matches(regen.golden_view(name, golden["artifact"]),
                    regen.golden_view(name, outputs), f"{name}/{backend}")
