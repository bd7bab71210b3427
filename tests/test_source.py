"""Checks on the package source itself."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import stardyn

SRC = Path(stardyn.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_inconsistency_message_says_it_is_a_bug():
    # an InconsistencyError is always a bug, never a property of the
    # pattern, so every one built in the package says so in its message
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InconsistencyError":
                text = node.args[0] if len(node.args) == 1 else None
                if isinstance(text, ast.JoinedStr):
                    text = text.values[-1]
                if not (isinstance(text, ast.Constant) and text.value.endswith("— this is a bug")):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_imports_no_runtime_dependency():
    # every CLI call pays for what ``stardyn.cli`` imports; networkx is only
    # the tests' isomorphism reference
    code = "import sys, stardyn.cli; print([m for m in sys.modules if m.split('.')[0] == 'networkx'])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    runtime = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    assert runtime is not None and runtime.group(1).strip() == ""


def test_cli_import_leaves_process_pools_out():
    # every CLI call pays for its imports: ``concurrent.futures`` is imported
    # only by a survey with --jobs > 1, ``csv`` only by a CSV table, and
    # nothing loads ``dataclasses`` or the ``inspect`` it pulls in
    unwanted = ["concurrent.futures", "dataclasses", "inspect", "csv"]
    code = f"import sys, stardyn.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


BUILDERS = ("exec", "eval", "compile")


def test_package_generates_no_code():
    # records come from ``patterns._Record``, which runs no generated code:
    # no module imports ``dataclasses`` or calls exec, eval or compile
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno} imports dataclasses")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUILDERS:
                found.append(f"{path.name}:{node.lineno} calls {node.func.id}")
    assert found == []


def _package_imports(path: Path) -> set[str]:
    """The package modules that one module imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stardyn."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("stardyn.")}
    return found


def test_module_layering():
    # the covering rule lives with the pure combinatorics, below the
    # realization, and nothing below the survey reaches back up
    imports = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}
    assert imports["patterns"] == imports["orders"] == set()
    assert imports["plmap"] == {"patterns"}
    assert imports["certify"] <= {"orders", "patterns", "plmap"}
    assert not imports["survey"] & {"plmap", "cli"}


def test_certify_and_survey_never_validate_directly():
    # a pattern is validated by the descent pass ``patterns._descent``,
    # which every table builder calls, or by the parsers; plmap, certify
    # and survey read the tables
    for name in ("plmap", "certify", "survey"):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "validate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
        assert calls == [], name


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The top-level definitions of a module that call ``name``, as a bare
    name or an attribute ("<module>" for a call outside every definition)."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }


def _package_callers(name: str, skip: str) -> set[str]:
    """"module.definition" for every top-level definition outside the
    module ``skip`` that calls ``name``."""
    return {
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != skip
        for owner in _callers(ast.parse(path.read_text(encoding="utf-8")), name)
    }



def test_validate_runs_only_in_the_parsers_and_the_descent_pass():
    # the descent pass checks the invariants itself and calls ``validate``
    # only for the message of an invalid pattern; no table builder
    # validates a second time
    assert _package_callers("validate", "") == {
        "patterns.parse_pattern",
        "patterns.pattern_from_json_dict",
        "patterns._descent",
    }


def test_only_the_checked_scan_asks_the_oracle():
    # outside plmap the oracle's scan is reached through one function, which
    # checks it against the closed-walk count
    assert _package_callers("_scan", "plmap") == {"certify._checked_scan"}


def test_no_module_but_plmap_calls_the_unchecked_oracle():
    # the public listings skip the closed-walk count, so every caller
    # outside plmap, a replay included, goes through the checked scan
    names = ("oracle_scan", "first_witness", "periodic_points")
    assert set().union(*(_package_callers(name, "plmap") for name in names)) == set()


def test_only_certify_counts_periods_from_walks():
    # the least-period counts are worked out where the checked scan
    # compares against them, and nowhere else
    assert {c.split(".")[0] for c in _package_callers("_period_counts", "")} == {"certify"}


def test_all_names_exactly_the_public_imports():
    # ``__all__`` lists every public name that ``__init__`` imports, and
    # nothing else but the version
    tree = ast.parse(Path(stardyn.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    assert len(stardyn.__all__) == len(set(stardyn.__all__))
    assert set(stardyn.__all__) == set(public) | {"__version__"}
    assert [name for name in stardyn.__all__ if not hasattr(stardyn, name)] == []


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


def test_every_cache_is_keyed_by_ints():
    # a ``functools.cache`` keyed by ints stays bounded by a survey's shape
    # (vertex counts, horizons, row masks); one keyed by a pattern or a
    # record would keep every class of the survey alive
    found, caches = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_is_cache, node.decorator_list)
            ):
                caches += 1
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if args.vararg or args.kwarg or not all(
                    isinstance(a.annotation, ast.Name) and a.annotation.id == "int" for a in params
                ):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert caches and found == []
