"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stardyn
from support import child_env

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
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
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
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
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
    # every CLI call loads what ``cli`` imports at module level; the survey
    # is imported only inside the commands that run it
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    top = {node.module for node in cli.body if isinstance(node, ast.ImportFrom) and node.level}
    assert top == {"certify", "orders", "patterns", "plmap"}
    assert "survey" in imports["cli"]


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
    # a parsed pattern is valid by construction, so the parsers ask
    # ``validate`` (in ``_built``) only to word n < 1 or k < 2; the descent
    # pass checks a hand-built pattern itself and calls ``validate`` only
    # for the message of an invalid one
    assert _package_callers("validate", "") == {"patterns._built", "patterns._descent"}


def _package_definitions(name: str) -> set[str]:
    """The modules that define ``name`` at top level."""
    return {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if getattr(node, "name", None) == name
    }


def test_the_walk_count_is_defined_in_plmap_alone():
    # the closed-walk count has one home, beside the scan that checks
    # every listing against it; certify imports it from there
    for name in ("_packing", "_walk_traces", "_period_counts"):
        assert _package_definitions(name) == {"plmap"}, name


def test_no_module_but_plmap_calls_the_unchecked_oracle():
    # the public listings are checked against the walk count too, but they
    # build a record for every point; every caller outside plmap, a replay
    # included, reads the scan's integer entries (``plmap._scan``) instead
    names = ("oracle_scan", "first_witness", "periodic_points")
    assert set().union(*(_package_callers(name, "plmap") for name in names)) == set()


def test_periods_are_counted_from_walks_where_they_are_checked():
    # the least-period counts are worked out by the scan that checks its
    # listing against them, and by the survey rows and the report, which
    # decide periods by them and hand them to the scan
    assert _package_callers("_period_counts", "") == {
        "plmap._scan",
        "certify._survey_rows",
        "certify.periodicity_report",
    }


def test_all_names_exactly_the_public_imports():
    # ``__all__`` lists every public name of the export table, which maps
    # each module to the names ``stardyn`` imports from it on first use,
    # and nothing else but the version
    exported = [name for names in stardyn._EXPORTS.values() for name in names]
    assert [name for name in exported if name.startswith("_")] == []
    assert len(stardyn.__all__) == len(set(stardyn.__all__))
    assert set(stardyn.__all__) == set(exported) | {"__version__"}
    assert [name for name in stardyn.__all__ if not hasattr(stardyn, name)] == []


def test_each_name_is_its_home_modules_own():
    # a lazily loaded name is the very object its module binds, and a
    # package type or function is defined there, not imported into it
    for module, names in stardyn._EXPORTS.items():
        home = importlib.import_module(f"stardyn.{module}")
        for name in names:
            value = getattr(stardyn, name)
            assert value is getattr(home, name), name
            defined = getattr(value, "__module__", None)
            assert defined == home.__name__ or not str(defined).startswith("stardyn"), name
    assert set(stardyn.__all__) <= set(dir(stardyn))
    assert set(stardyn._EXPORTS) <= set(dir(stardyn))


def test_every_int_byte_conversion_names_its_byte_order():
    # int.from_bytes and int.to_bytes take the byte order as an optional
    # argument only from Python 3.11 on, and the package supports 3.10
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                call = calls.get(id(node))
                if call is None or len(call.args) < 2 and all(k.arg != "byteorder" for k in call.keywords):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_unknown_names_raise_the_standard_attribute_error():
    # a name outside the table, a private one of a module included
    for name in ("no_such_name", "_survey_rows"):
        with pytest.raises(AttributeError, match=f"^module 'stardyn' has no attribute {name!r}$"):
            getattr(stardyn, name)
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'stardyn'"):
        from stardyn import no_such_name  # noqa: F401


def test_star_import_and_submodules_load_on_first_use():
    # ``from stardyn import *`` binds every public name, and a submodule that
    # the eager package bound is still an attribute after a bare import
    code = (
        "import sys, stardyn\n"
        "print(stardyn.survey is sys.modules['stardyn.survey'])\n"
        "from stardyn import *\n"
        "print([n for n in stardyn.__all__ if globals().get(n) is not getattr(stardyn, n)])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert (run.returncode, run.stdout) == (0, "True\n[]\n"), run.stderr


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


_INT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def test_package_uses_no_floats():
    # every number is an int or a Fraction: no float literal, no ``float``
    # and no ``math`` function outside the int-only ones.  A true division
    # of two ints is a float too, but the source does not say which
    # operands are ints; the oracle's sort order is pinned exactly by
    # ``test_plmap``
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        math_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "math"
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in math_names
                and node.attr not in _INT_MATH
                or isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name not in _INT_MATH for alias in node.names)
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)[:60]}")
    assert found == []
