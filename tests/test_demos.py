"""Each demo script runs to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "exact_vs_heuristic.py",
    "gower_mixed_data.py",
    "ilp_export.py",
    "worked_counterexample.py",
]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
