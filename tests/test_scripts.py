"""Smoke tests of the scripts under ``scripts/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_work_counts_runs():
    # work_counts.py rebinds engine functions for the life of its process,
    # so it runs in a subprocess of its own: that must not leak into the
    # tests that follow.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "work_counts.py"), "--n", "2"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    totals = json.loads(run.stdout.splitlines()[-1])
    assert totals["instances"] == 100
    assert totals["table_clears"] == 0
