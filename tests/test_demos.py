"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import photonfusion

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # the child imports the same package the tests import, installed or not
    src = str(Path(photonfusion.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
