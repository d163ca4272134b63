"""Smoke test: every demo script runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import honeycomb434

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-4]_*.py"))
PACKAGE_ROOT = str(Path(honeycomb434.__file__).resolve().parent.parent)


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
