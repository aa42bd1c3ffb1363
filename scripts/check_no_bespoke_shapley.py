#!/usr/bin/env python3
"""Lint: forbid bespoke Shapley permutation loops outside ``repro.games``.

The games layer exists so that every Shapley-style computation shares one
walk loop (caching, chunking, budgets, telemetry, convergence
diagnostics). The failure mode it guards against is regression by
convenience: a new estimator quietly re-implementing the
"sample a permutation, accumulate marginal contributions" loop and
losing all of that machinery.

Detection is a small per-function taint analysis, not a grep:

* any name assigned from an expression containing a ``.permutation(...)``
  call is *tainted* (``perm = rng.permutation(n)``);
* taint propagates through assignments referencing tainted names and
  through ``for`` targets iterating tainted iterables (unwrapping
  ``enumerate()``);
* an offence is a marginal-contribution accumulation driven by the
  permutation: an augmented assignment into a subscript whose index
  references a tainted name (``sums[point] += ...``), or a ``for`` loop
  over a tainted iterable whose body performs any subscript ``+=``.

Plain uses of ``rng.permutation`` — shuffling minibatch order, permuting
rows for a baseline — do not accumulate per-player marginals and pass.
Everything under ``src/repro/games/`` is exempt (that is where the one
true loop lives). Outside ``src/repro``, a trailing ``# games: allow``
on the ``.permutation(...)`` line opts a reference loop out; inside it
the marker is ignored, so a bespoke loop in the shipped package always
fails (the pre-games reference loops live in ``tests/oracles/``).

AST-based, so strings and comments cannot trip it. Exit status 0 when
clean, 1 with a ``path:line reason`` listing otherwise. Enforced in
tier-1 via ``tests/test_obs_lint_and_bench.py``.
"""

from __future__ import annotations

import ast
import os
import sys

ALLOW_MARKER = "# games: allow"
_EXEMPT_DIR = os.sep + os.path.join("repro", "games") + os.sep
_PACKAGE_DIR = os.sep + os.path.join("src", "repro") + os.sep


def _contains_permutation_call(node: ast.AST) -> int | None:
    """Line of the first ``<anything>.permutation(...)`` call, else None."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "permutation"
        ):
            return sub.lineno
    return None


def _loaded_names(node: ast.AST) -> set[str]:
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _target_names(target: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)
    }


def _unwrap_enumerate(node: ast.expr) -> ast.expr:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "enumerate"
        and node.args
    ):
        return node.args[0]
    return node


def _scope_statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """All statements of a scope in source order, not entering functions."""
    out: list[ast.stmt] = []
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(stmt, field, [])))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(reversed(handler.body))
    out.sort(key=lambda s: (s.lineno, s.col_offset))
    return out


def _body_has_subscript_augassign(stmt: ast.For) -> bool:
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(sub, ast.AugAssign) and isinstance(
            sub.target, ast.Subscript
        ):
            return True
    return False


def _scope_violations(body: list[ast.stmt]) -> list[tuple[int, str]]:
    """``(origin_line, reason)`` offences for one function/module scope."""
    statements = _scope_statements(body)
    tainted: dict[str, int] = {}
    offences: dict[tuple[int, str], None] = {}

    def origin_of(names: set[str]) -> int | None:
        lines = [tainted[n] for n in names if n in tainted]
        return min(lines) if lines else None

    # Two passes reach the taint fixpoint across loop-carried assignments;
    # offences are recorded on the second, fully-tainted pass.
    for record in (False, True):
        for stmt in statements:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                call_line = _contains_permutation_call(value)
                origin = (
                    call_line
                    if call_line is not None
                    else origin_of(_loaded_names(value))
                )
                if origin is not None:
                    for target in targets:
                        # Writing through a subscript does not taint the
                        # container name itself (masks[i] = perm-derived
                        # data is construction, not accumulation).
                        if isinstance(target, ast.Subscript):
                            continue
                        for name in _target_names(target):
                            tainted.setdefault(name, origin)
            elif isinstance(stmt, ast.For):
                iter_expr = _unwrap_enumerate(stmt.iter)
                origin = origin_of(_loaded_names(iter_expr))
                if origin is not None:
                    for name in _target_names(stmt.target):
                        tainted.setdefault(name, origin)
                    if record and _body_has_subscript_augassign(stmt):
                        offences[
                            origin,
                            "permutation-driven loop accumulates into a "
                            f"subscript (line {stmt.lineno}); use "
                            "repro.games.permutation_estimator",
                        ] = None
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Subscript
            ):
                origin = origin_of(_loaded_names(stmt.target.slice))
                if record and origin is not None:
                    offences[
                        origin,
                        "marginal contributions accumulated by permutation "
                        f"index (line {stmt.lineno}); use "
                        "repro.games.permutation_estimator",
                    ] = None
    return sorted(offences)


def find_violations(path: str) -> list[tuple[int, str]]:
    """``(line, reason)`` pairs for one Python file.

    ``ALLOW_MARKER`` is honoured only outside ``src/repro``.
    """
    honour_marker = _PACKAGE_DIR not in os.path.abspath(path)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    scopes: list[list[ast.stmt]] = [tree.body]
    scopes.extend(
        node.body
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    out: list[tuple[int, str]] = []
    for body in scopes:
        for line, reason in _scope_violations(body):
            line_text = lines[line - 1] if line <= len(lines) else ""
            if honour_marker and ALLOW_MARKER in line_text:
                continue
            out.append((line, reason))
    return sorted(set(out))


def offenders(root: str) -> list[str]:
    """All ``path:line reason`` offences under ``root``."""
    out: list[str] = []
    for dirpath, __, filenames in sorted(os.walk(root)):
        if _EXEMPT_DIR in dirpath + os.sep:
            continue
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            out.extend(
                f"{path}:{line} {reason}"
                for line, reason in find_violations(path)
            )
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
        "repro",
    )
    root = argv[0] if argv else default_root
    found = offenders(root)
    if found:
        sys.stderr.write(
            "bespoke Shapley permutation loop found (route it through "
            "repro.games.permutation_estimator; reference loops belong "
            "in tests/oracles/):\n"
        )
        for offence in found:
            sys.stderr.write(f"  {offence}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
