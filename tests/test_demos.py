"""Each demo prints exactly its committed stdout.

The demos run as scripts from a copy of ``demos/`` in a temporary
directory, with ``src`` on ``PYTHONPATH``: demo 06 writes its SVGs next
to itself, and the copy keeps the tree clean.  The copy's path in the
output reads as ``$DEMOS`` in the goldens.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout_matches_golden(tmp_path, demo):
    copy = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", copy, ignore=shutil.ignore_patterns("*.svg"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, demo.name], cwd=copy, env=env, capture_output=True, check=True
    )
    expected = (GOLDEN / f"{demo.stem}.txt").read_bytes()
    assert result.stdout.replace(str(copy.resolve()).encode(), b"$DEMOS") == expected
