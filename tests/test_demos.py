"""Every demo runs to the end: a renamed export breaks a demo here first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=300, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
