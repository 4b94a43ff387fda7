"""Record the expected answers every benchmark run is checked against.

    python3 perfbench/record.py

Writes ``perfbench/expected/{decompose,membership,verify}.json`` from the
engine in this checkout: every op of each workload's ``all_ops`` is run and
its ``answer`` stored, so the op body and its law checks are the ones a
benchmark run uses.  Run it only at a commit whose answers are trusted: the
files are the reference that later changes must reproduce.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import HERE, import_engine


def record(wl) -> dict:
    from staircase import qe

    answers: dict = {}
    for op in wl.all_ops():
        call = op.prepare()
        qe.clear_caches()
        *path, last = op.slot
        slot = answers
        for key in path:
            slot = slot.setdefault(key, {})
        slot[last] = op.answer(call())  # a law failure raises and stops the recording
    return answers


def main() -> int:
    import_engine()
    import workloads

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        expected = {}
        for name in ("decompose", "membership", "verify"):
            wl = workloads.make(name, workdir, None)
            wl.setup()
            expected[name] = record(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Membership answers are stored per instance as a list indexed by point.
    expected["membership"] = {
        key: [shapes[i] for i in range(len(shapes))]
        for key, shapes in expected["membership"].items()
    }
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name, answers in expected.items():
        with open(os.path.join(workloads.EXPECTED_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(answers, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
