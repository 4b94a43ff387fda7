"""Seeded, closed-loop benchmark of the staircase engine.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Runs one workload (decompose, membership or verify) in this single-threaded
process with one client: each op starts after the previous one ends, and
every op starts with cold engine caches (``qe.clear_caches()``).  Every
answer is checked against ``perfbench/expected``; a wrong answer or an
exception counts as a failed op.

A run measures whole passes over the workload's op list: at least one pass
and at least ``MIN_OPS`` ops, then further passes while the next one is
expected to end within ``--seconds`` of op time.  Whole passes keep the mix
of cheap and heavy instances the same in every run.  ``setup_s`` is the
median of several set-ups spread over the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload's fixed traced ops (``traced_ops``, chosen by neither seed nor
speed) untraced, then the same ops traced (see ``tracing.py``), and prints
the per-layer metrics; it also runs the wrapper coverage check and the
bypass checks.  One row per op goes to ``perfbench/runs/``.  The last
line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import json
from array import array
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_OPS = 100  # so that at least 10 ops lie beyond p90
# Set-ups per untraced run, whose median is setup_s: more where set-up is
# short, so that the set-ups sample the whole run.
SETUP_REPEATS = {"decompose": 11, "membership": 3, "verify": 21}
# Ops of the coverage slice, taken from the first n=2 traced ops.
COVERAGE_OPS = {"decompose": 3, "membership": 25, "verify": 3}
DOT_SHARE_LIMIT = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("decompose", "membership", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Import ``staircase`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "staircase", "__init__.py")):
        sys.exit(f"perfbench: no engine source at {SRC}")
    sys.path.insert(0, SRC)
    import staircase

    if os.path.dirname(os.path.dirname(os.path.abspath(staircase.__file__))) != SRC:
        sys.exit(f"perfbench: staircase imported from {staircase.__file__}, not {SRC}")


class Rows:
    """Writes one JSON row per op to the run's rows file as the run goes, and
    keeps only the op times in memory, so memory does not grow with speed."""

    def __init__(self, path: str, env: dict):
        self.fh = open(path, "w", encoding="utf-8")
        self.fh.write(json.dumps({"env": env}) + "\n")
        self.workload = env["workload"]
        self.ms = array("d")
        self.failed = 0

    def add(self, row: dict) -> None:
        self.fh.write(json.dumps({"workload": self.workload, **row}) + "\n")
        self.ms.append(row["ms"])
        self.failed += not row["ok"]

    def close(self) -> None:
        self.fh.close()


def run_op(wl, op, tracer=None) -> dict:
    """Prepare, time and check one op; returns its row."""
    from staircase import qe

    call = op.prepare()
    qe.clear_caches()
    error = None
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # a failing op is counted and the run goes on
        error = traceback.format_exc(limit=4)
    finally:
        ms = (time.perf_counter() - start) * 1000
        if tracer is not None:
            tracer.active = False
    if error is None:
        try:
            error = wl.check(op, result)
        except Exception:  # a check that raises fails the op
            error = traceback.format_exc(limit=4)
    if error is not None:
        print(f"perfbench: {op.instance} failed: {error}", file=sys.stderr)
    return {
        "instance": op.instance, "seed": op.seed, "n": op.n, "cells": op.cells,
        "ms": ms, "ok": error is None, "traced": tracer is not None,
    }


def timed_setup(wl) -> float:
    from staircase import qe

    qe.clear_caches()
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def measure(wl, rng, seconds, rows: Rows) -> list[float]:
    """Whole passes, at least MIN_OPS ops, while the next pass is expected
    to end within ``seconds`` of op time; returns the set-up times.

    The machine's speed drifts over tens of seconds, so the set-ups after
    the first are spread over the run's op time rather than run back to
    back: then setup_s sees the same drift as the op times."""
    repeats = SETUP_REPEATS[wl.name]
    setups = [timed_setup(wl)]
    op_s = 0.0
    while True:
        pass_s = 0.0
        for op in wl.pass_ops(rng):
            row = run_op(wl, op)
            rows.add(row)
            pass_s += row["ms"] / 1000
            if len(setups) < repeats and op_s + pass_s >= len(setups) * seconds / repeats:
                setups.append(timed_setup(wl))
        op_s += pass_s
        if len(rows.ms) >= MIN_OPS and op_s + pass_s > seconds:
            break
    while len(setups) < repeats:
        setups.append(timed_setup(wl))
    return setups


def end_to_end(ms, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def coverage_check(wl, ops) -> list[str]:
    """Traced call counts must equal cProfile's on a small slice."""
    from staircase import qe

    sample = [op for op in ops if op.n == 2][: COVERAGE_OPS[wl.name]]

    def run(calls):
        for call in calls:
            qe.clear_caches()
            call()

    calls = [op.prepare() for op in sample]
    profiled = tracing.profile_counts(lambda: run(calls))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = [op.prepare() for op in sample]
        tracer.active = True
        run(calls)
    finally:
        tracer.active = False
        tracer.uninstall()
    return [
        f"coverage: {key} traced {tracer.calls[key]} calls, cProfile {profiled[key]}"
        for key in tracing.COVERAGE_KEYS
        if tracer.calls[key] != profiled[key]
    ]


def traced_run(wl, rows: Rows):
    """The workload's fixed traced ops, untraced and then traced, so that the
    per-layer totals depend only on the code."""
    ops = wl.traced_ops()
    problems = coverage_check(wl, ops)
    for op in ops:
        rows.add(run_op(wl, op))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            rows.add(run_op(wl, op, tracer))
    finally:
        tracer.uninstall()
    plain_s = sum(rows.ms[: len(ops)]) / 1000
    traced_s = sum(rows.ms[len(ops):]) / 1000
    metrics = tracer.metrics(traced_s / plain_s)
    if wl.name == "membership" and metrics["qe.is_empty_cell.calls"] != 0:
        problems.append(
            f"bypass: membership made {metrics['qe.is_empty_cell.calls']} is_empty_cell calls"
        )
    if wl.name == "decompose" and metrics["rationals.dot.self_s"] >= DOT_SHARE_LIMIT * traced_s:
        problems.append(
            f"bypass: rationals.dot self time {metrics['rationals.dot.self_s']:.3f}s is not "
            f"under {DOT_SHARE_LIMIT:.0%} of traced op time {traced_s:.3f}s"
        )
    units = dict(tracing.metric_names())
    return {k: (metrics[k], units[k]) for k in units}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_engine()
    import workloads

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
    }
    print(json.dumps({"env": env}))
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    rows = Rows(os.path.join(runs, f"{args.workload}-trace{args.trace}.jsonl"), env)
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        wl = workloads.make(args.workload, workdir, workloads.load_expected(args.workload))
        if args.trace:
            timed_setup(wl)
            metrics, problems = traced_run(wl, rows)
        else:
            setup_times = measure(wl, random.Random(args.seed), args.seconds, rows)
            metrics, problems = end_to_end(rows.ms, setup_times), []
    finally:
        rows.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"rows": os.path.relpath(rows.fh.name), "ops": len(rows.ms)}))
    print(json.dumps({
        "correct": rows.failed == 0 and not problems,
        "attempted": len(rows.ms),
        "failed": rows.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
