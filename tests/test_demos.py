"""The demos print the same bytes as when their digests were recorded.

``demo_digests.json`` holds the sha256 of each demo's standard output, so
a change that alters any printed fact, or its formatting, fails here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stardyn

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((Path(__file__).with_name("demo_digests.json")).read_text(encoding="utf-8"))


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_matches_digest(name):
    env = dict(os.environ)
    src = str(Path(stardyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
