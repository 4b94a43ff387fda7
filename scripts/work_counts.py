#!/usr/bin/env python3
"""Deterministic work counts of the decompose corpus.

For every instance of the acceptance corpora (``random_downset`` n=2 seeds
0-99 with budget 8, n=3 seeds 10000-10024 with budget 5), or with ``--n 4``
of the n=4 instances ``random_downset(s, 4, 5)`` for s = 1-6 (seed 6 is
the hard case), loaded from its instance JSON as the CLI does, it starts
from cold engine caches, runs the primary decomposition, the irreducible
family and ``reconstruct``, then checks the reconstruction against the
carrier with ``qe.equals``.  It counts four kinds of work and one size:

* ``cells``: ``qe.Cell`` objects built, by the constructor or by
  ``qe.Cell.extended``;
* ``fm``: Fourier-Motzkin eliminations: the emptiness decisions
  ``qe._rows_empty`` of ``qe.is_empty_cell`` cache misses and the
  ``qe._eliminate_vars`` runs of ``qe.exists``;
* ``fm_pairs``: row pairs every FM step partitions out (lower times upper
  bounds on its variable, counted at ``qe._partition``), the size of the FM
  work: the steps with which ``qe.minkowski`` adds rays and lines included,
  the last step of an emptiness decision, a comparison of two bounds,
  not;
* ``is_empty_cell``: ``qe.is_empty_cell`` calls, cache hits included;
* ``memo_entries_max``: the most entries one of the ``qe`` memo tables
  (``qe._MEMOS``) holds during one instance's op, the footprint to weigh
  against their bound ``qe._MEMO_LIMIT``.  It is a maximum, not a sum.

The counts depend on the code alone, not on the machine or its load, so
they show the cut of a change exactly where wall time is too noisy to.  The
engine is wrapped from outside; no source file of it changes.  Counting
starts after every instance is loaded, so the last line, the totals as
JSON, is the sum of the printed rows (the maximum, for ``memo_entries_max``).

Usage: PYTHONPATH=src python3 scripts/work_counts.py [--n 2|3|4]
"""

import argparse
import functools
import json
import sys

from staircase import irreducible_family, primary_decomposition, qe, random_downset, reconstruct
from staircase.jsonio import instance_from_json, instance_to_json

CORPUS = [(s, 2, 8) for s in range(100)] + [(s, 3, 5) for s in range(10_000, 10_025)]
N4 = [(s, 4, 5) for s in range(1, 7)]


def install(counts: dict, peak: list) -> None:
    """Count calls of the wrapped functions in ``counts``; keep the largest
    memo table size in ``peak[0]``."""

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    qe.Cell.__post_init__ = counting("cells", qe.Cell.__post_init__)
    qe.Cell.extended = counting("cells", qe.Cell.extended)
    qe._eliminate_vars = counting("fm", qe._eliminate_vars)
    qe._rows_empty = counting("fm", qe._rows_empty)
    partition = qe._partition

    @functools.wraps(partition)
    def counted_partition(constraints, j):
        lows, ups, rest = partition(constraints, j)
        counts["fm_pairs"] += len(lows) * len(ups)
        return lows, ups, rest

    qe._partition = counted_partition
    # every other module calls it through ``qe`` except svg, which is not run here
    qe.is_empty_cell = counting("is_empty_cell", qe.is_empty_cell)
    remember = qe._remember

    @functools.wraps(remember)
    def measured(memo, key, value):
        value = remember(memo, key, value)
        peak[0] = max(peak[0], len(memo))
        return value

    qe._remember = measured


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, choices=(2, 3, 4),
                    help="only the instances of this dimension (4: the n=4 instances)")
    args = ap.parse_args(argv)
    corpus = N4 if args.n == 4 else [(s, n, b) for s, n, b in CORPUS if args.n in (None, n)]
    instances = [instance_from_json(instance_to_json(random_downset(s, n, b)))
                 for s, n, b in corpus]
    counts = dict.fromkeys(("cells", "fm", "fm_pairs", "is_empty_cell"), 0)
    peak = [0]
    install(counts, peak)
    per_n: dict[int, dict] = {}
    for (_, n, _), d in zip(corpus, instances):
        qe.clear_caches()
        peak[0] = 0
        before = dict(counts)
        pd = primary_decomposition(d)
        recon = reconstruct(irreducible_family(d, table=pd.table), d)
        if not qe.equals(recon, d.carrier):
            print(f"reconstruction differs from the carrier at n={n}", file=sys.stderr)
            return 1
        row = per_n.setdefault(n, dict.fromkeys((*counts, "memo_entries_max"), 0))
        for key in counts:
            row[key] += counts[key] - before[key]
        row["memo_entries_max"] = max(row["memo_entries_max"], peak[0])
    for n, row in sorted(per_n.items()):
        print(f"n={n}: " + "  ".join(f"{key} {value:,}" for key, value in row.items()))
    memo_max = max(row["memo_entries_max"] for row in per_n.values())
    print(json.dumps({"instances": len(corpus), **counts, "memo_entries_max": memo_max}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
