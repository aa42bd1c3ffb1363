"""Instrumentation coverage: one black-box explainer per family reports a
span with nonzero model-eval counters (the ISSUE-1 acceptance criterion),
and the CLI/report surfaces render the telemetry."""

import json

import numpy as np
import pytest

from repro import obs
from repro.counterfactual import GecoExplainer
from repro.rules import AnchorExplainer
from repro.shapley import KernelShapExplainer
from repro.surrogate import LimeTabularExplainer


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.get_tracer().reset()
    yield
    obs.get_tracer().reset()


def _explain_span(name="explain"):
    spans = [s for s in obs.get_tracer().spans() if s.name == name]
    assert spans, f"no {name!r} span recorded"
    return spans[-1]


def test_shapley_family_kernel_shap_span(loan_gbm, loan_data):
    explainer = KernelShapExplainer(loan_gbm, loan_data.X[:30],
                                    n_samples=64, seed=0)
    explainer.explain(loan_data.X[0])
    s = _explain_span()
    assert s.attrs["explainer"] == "kernel_shap"
    assert s.attrs["n_features"] == loan_data.n_features
    assert s.model_evals > 0
    assert s.rows_evaluated > 0
    assert s.wall_ms > 0


def test_surrogate_family_lime_span(loan_gbm, loan_data):
    explainer = LimeTabularExplainer(loan_gbm, loan_data,
                                     n_samples=200, seed=0)
    explainer.explain(loan_data.X[0])
    s = _explain_span()
    assert s.attrs["explainer"] == "lime"
    assert s.model_evals > 0
    assert s.rows_evaluated >= 200


def test_rules_family_anchor_span(loan_gbm, loan_data):
    explainer = AnchorExplainer(loan_gbm, loan_data,
                                precision_target=0.8, seed=0)
    explainer.explain(loan_data.X[0])
    s = _explain_span()
    assert s.attrs["explainer"] == "anchors"
    assert s.model_evals > 0
    assert s.rows_evaluated > 0


def test_counterfactual_family_geco_span(loan_gbm, loan_data):
    explainer = GecoExplainer(loan_gbm, loan_data, population=30,
                              generations=4, seed=0)
    explainer.explain(loan_data.X[0])
    s = _explain_span()
    assert s.attrs["explainer"] == "geco"
    assert s.model_evals > 0
    assert s.rows_evaluated > 0


def test_instrumentation_disabled_is_transparent(loan_gbm, loan_data):
    explainer = KernelShapExplainer(loan_gbm, loan_data.X[:20],
                                    n_samples=32, seed=0)
    obs.set_enabled(False)
    try:
        att = explainer.explain(loan_data.X[1])
    finally:
        obs.set_enabled(True)
    assert att.values.shape == (loan_data.n_features,)
    assert obs.get_tracer().spans() == []


def test_subclass_overriding_a_wrapped_explain_yields_one_span():
    from repro.core.base import Explainer

    class Parent(Explainer):
        method_name = "parent"

        def __init__(self):
            pass

        def explain(self, x):
            return x

    class Override(Parent):
        method_name = "override"

        def explain(self, x):
            return -x

    class Rebound(Parent):
        explain = Parent.explain

    # A re-bound wrapped method is not wrapped a second time.
    assert Rebound.__dict__["explain"] is Parent.__dict__["explain"]
    for cls in (Override, Rebound):
        obs.get_tracer().reset()
        cls().explain(np.zeros(3))
        spans = [s for s in obs.get_tracer().spans() if s.name == "explain"]
        assert len(spans) == 1
        assert spans[0].attrs["explainer"] == cls.method_name


def test_summary_table_lists_explainers(loan_gbm, loan_data):
    KernelShapExplainer(loan_gbm, loan_data.X[:20], n_samples=32,
                        seed=0).explain(loan_data.X[0])
    table = obs.summary()
    assert "kernel_shap" in table
    assert "total" in table
    rows = obs.summary_dict()
    assert rows and rows[0]["model_evals"] > 0


def test_cli_trace_exports_jsonl_and_prints_summary(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "demo.jsonl"
    rc = main(["trace", "--out", str(out), "demo", "--instance", "1"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "observability summary" in captured
    assert "trace written to" in captured
    records = [json.loads(line)
               for line in out.read_text().strip().splitlines()]
    assert records, "trace export is empty"
    names = {r["name"] for r in records}
    assert "explain" in names
    assert any(r["model_evals"] > 0 for r in records)
