"""The demos print the same bytes as when their digests were recorded.

``demo_digests.json`` holds the sha256 of each demo's standard output, so
a change that alters any printed fact, or its formatting, fails here.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from support import child_env

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((Path(__file__).with_name("demo_digests.json")).read_text(encoding="utf-8"))


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_matches_digest(name):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=child_env(), cwd=ROOT
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[name]
