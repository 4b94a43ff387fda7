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


def test_answer_digest_round_trip(tmp_path):
    # a dump compares equal with itself; with one answer emptied, the
    # comparison names that instance and answer and fails
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "answer_digest.py")

    def digest(*args):
        return subprocess.run([sys.executable, script, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    dump = tmp_path / "answers.json"
    run = digest("--dump", str(dump))
    assert run.returncode == 0, run.stderr
    run = digest("--against", str(dump))
    assert run.returncode == 0, run.stderr
    assert f"every answer equals {dump}" in run.stdout
    answers = json.loads(dump.read_text())
    instance, key = "n=3 seed=10024", "reconstruct"
    assert answers[instance][key]["cells"]
    answers[instance][key] = {"dim": 3, "cells": []}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(answers))
    run = digest("--against", str(broken))
    assert run.returncode == 1
    assert f"differs: {instance}: {key}" in run.stdout
