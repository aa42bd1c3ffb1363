"""Drift checks between the package, its docs and its test oracles.

* Every ``REPRO_*`` environment variable named under ``src/repro`` has
  a row in one of README's env tables, and every row names a variable
  the package reads. A prefix such as ``REPRO_SERVE_*`` covers the rows
  that start with it.
* Naive reference implementations live in ``tests/oracles/``, not in
  the package: no ``legacy_*`` name is importable from ``repro`` except
  the db oracles the provenance benchmark workload checks against.
* Every public explainer derives from ``Explainer``, so the base
  class's one wrapper (guard scope + span) covers all of them, and
  ``repro.obs`` exports no second instrumentation path.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(REPO_ROOT, "src", "repro")

# Imported by the provenance benchmark workload as output checks.
LEGACY_ALLOWED = {
    "repro.db.planner.Query.legacy_execute",
    "repro.db.index.legacy_descendants",
    "repro.db.index.legacy_ancestors",
    "repro.db.index.legacy_supports",
    "repro.db.why_not.legacy_why_not",
    "repro.db.query_explain.legacy_explain_aggregate",
}


def _env_names_in_package() -> tuple[set[str], set[str]]:
    """``(names, prefixes)`` of the ``REPRO_*`` variables the package names."""
    names: set[str] = set()
    prefixes: set[str] = set()
    for dirpath, __, filenames in os.walk(PACKAGE_DIR):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename), encoding="utf-8") as f:
                for name in re.findall(r"REPRO_[A-Z0-9_]*", f.read()):
                    (prefixes if name.endswith("_") else names).add(name)
    return names, prefixes


def _env_names_in_readme() -> set[str]:
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
        return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", f.read(), re.M))


def test_every_env_var_has_a_readme_row_and_every_row_is_read():
    names, prefixes = _env_names_in_package()
    documented = _env_names_in_readme()
    assert names, "no REPRO_* variables found under src/repro"
    assert sorted(names - documented) == [], "read but not documented"
    stale = sorted(
        row for row in documented - names
        if not any(row.startswith(p) for p in prefixes)
    )
    assert stale == [], "documented but never read"
    for prefix in prefixes:
        assert any(row.startswith(prefix) for row in documented), prefix


def _legacy_names() -> set[str]:
    """Qualified names of every ``legacy_*`` object reachable in repro."""
    found: set[str] = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("legacy_"):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
            elif inspect.isclass(obj) and obj.__module__.startswith("repro"):
                found.update(
                    f"{obj.__module__}.{obj.__qualname__}.{attr}"
                    for attr in vars(obj) if attr.startswith("legacy_")
                )
    return found


def test_only_allow_listed_legacy_names_ship():
    assert sorted(_legacy_names() - LEGACY_ALLOWED) == []


def _public_explainer_classes() -> dict[str, type]:
    """Every public ``*Explainer`` class in a repro subpackage that
    defines ``explain``, by qualified name."""
    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and name.endswith("Explainer")
                and not name.startswith("_")
                and obj.__module__.startswith("repro.")
                and hasattr(obj, "explain")
            ):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_public_explainer_derives_from_explainer():
    from repro.core.base import Explainer

    classes = _public_explainer_classes()
    # The formerly decorated classes are among those found.
    assert {
        "repro.rules.anchors.AnchorExplainer",
        "repro.shapley.tree.TreeShapExplainer",
        "repro.shapley.tree_interventional.InterventionalTreeShapExplainer",
        "repro.causal.causal_shapley.CausalShapleyExplainer",
        "repro.causal.asymmetric.AsymmetricShapleyExplainer",
        "repro.causal.shapley_flow.ShapleyFlowExplainer",
        "repro.surrogate.lime_text.LimeTextExplainer",
    } <= set(classes)
    outside = sorted(
        name for name, cls in classes.items()
        if not issubclass(cls, Explainer)
    )
    assert outside == []


def test_obs_exports_no_second_instrumentation_path():
    import repro.obs

    assert "instrument_explainer" not in repro.obs.__all__
    assert not hasattr(repro.obs, "instrument_explainer")
