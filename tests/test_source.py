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
