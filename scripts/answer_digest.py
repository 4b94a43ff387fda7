#!/usr/bin/env python3
"""One SHA-256 over the exact answers on the acceptance corpora.

For every instance of the corpora (``random_downset`` n=2 seeds 0-99 with
budget 8, n=3 seeds 10000-10024 with budget 5), loaded from its instance
JSON as the CLI does, it hashes the rows ``(normal, offset numerator,
offset denominator, strict)``, cell by cell and in order, of: the carrier,
every socle entry's degrees and cosets, every primary component's interval
and hull, and ``reconstruct``.  Two trees print the same digest exactly
when they give the same rows in the same order, so a change that must not
alter any answer can be checked by running this before and after it.

Usage: PYTHONPATH=src python3 scripts/answer_digest.py
"""

import hashlib
import sys

from staircase import (
    Face,
    irreducible_family,
    primary_decomposition,
    random_downset,
    reconstruct,
)
from staircase.jsonio import instance_from_json, instance_to_json

CORPUS = [(s, 2, 8) for s in range(100)] + [(s, 3, 5) for s in range(10_000, 10_025)]


def rows(s) -> list:
    return [
        [(h.normal, h.offset.numerator, h.offset.denominator, h.strict) for h in c.constraints]
        for c in s.cells
    ]


def instance_answers(seed: int, n: int, budget: int) -> list:
    d = instance_from_json(instance_to_json(random_downset(seed, n, budget)))
    pd = primary_decomposition(d)
    table = pd.table
    out = [rows(d.carrier)]
    for key in sorted(table.entries, key=lambda k: (Face.sort_key(k[0]), Face.sort_key(k[1]))):
        entry = table.entries[key]
        out += [rows(entry.degrees), rows(entry.cosets)]
    for comp in pd.components.values():
        out += [rows(comp.interval.carrier), rows(comp.hull.carrier)]
    out.append(rows(reconstruct(irreducible_family(d, table=table), d)))
    return out


def main() -> int:
    digest = hashlib.sha256()
    for seed, n, budget in CORPUS:
        digest.update(repr((seed, n, instance_answers(seed, n, budget))).encode())
    print(f"{digest.hexdigest()}  ({len(CORPUS)} instances)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
