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

A change that rewrites cell syntax changes the digest even when every set
stays the same.  For that case, ``--dump FILE`` writes every answer as
``plset_to_json``, and ``--against FILE`` compares each answer with such a
dump by ``qe.equals``.  It prints the first instance and answer that
differ and exits 1.  The dump and the comparison also cover, unhashed:

* the upper boundary ``upper_boundary(d, sigma)`` of every face, the sets
  the benchmark's membership workload tests points against;
* the socle tables of the benchmark's verify mix of n=2 upsets and
  intervals (``random_upset`` seeds 21000-21015 with budget 4,
  ``random_interval`` seeds 22000-22005 with budget 3): every top's
  degrees and cosets for an upset, every socle entry's for an interval.

Usage: PYTHONPATH=src python3 scripts/answer_digest.py [--dump FILE] [--against FILE]
"""

import argparse
import hashlib
import sys

from staircase import (
    Face,
    all_faces,
    irreducible_family,
    primary_decomposition,
    qe,
    random_downset,
    random_interval,
    random_upset,
    reconstruct,
    socle_table,
    top_table,
    upper_boundary,
)
from staircase.jsonio import (
    dumps,
    face_to_json,
    instance_from_json,
    instance_to_json,
    loads,
    plset_from_json,
    plset_to_json,
)

CORPUS = [(s, 2, 8) for s in range(100)] + [(s, 3, 5) for s in range(10_000, 10_025)]
# the upsets and intervals of the benchmark's verify mix: (kind, seed, budget)
MIXED = ([("upset", s, 4) for s in range(21_000, 21_016)]
         + [("interval", s, 3) for s in range(22_000, 22_006)])


def rows(s) -> list:
    return [
        [(h.normal, h.offset.numerator, h.offset.denominator, h.strict) for h in c.constraints]
        for c in s.cells
    ]


def instance_answers(seed: int, n: int, budget: int) -> tuple[list, list]:
    """The answers of one instance as ``(key, PLSet)`` pairs: those the
    digest hashes, in digest order, and the upper boundary of every face."""
    d = instance_from_json(instance_to_json(random_downset(seed, n, budget)))
    pd = primary_decomposition(d)
    table = pd.table
    out = [("carrier", d.carrier)] + entry_answers(table.entries)
    for tau, comp in pd.components.items():
        name = f"component tau={face_to_json(tau)}"
        out += [(f"{name} interval", comp.interval.carrier),
                (f"{name} hull", comp.hull.carrier)]
    out.append(("reconstruct", reconstruct(irreducible_family(d, table=table), d)))
    boundaries = [(f"boundary sigma={face_to_json(sigma)}", upper_boundary(d, sigma).carrier)
                  for sigma in all_faces(n)]
    return out, boundaries


def entry_answers(entries: dict) -> list:
    """The degrees and cosets of face-pair entries, in face-pair order."""
    out = []
    for key in sorted(entries, key=lambda k: (Face.sort_key(k[0]), Face.sort_key(k[1]))):
        entry = entries[key]
        name = f"tau={face_to_json(key[0])};sigma={face_to_json(key[1])}"
        out += [(f"{name} degrees", entry.degrees), (f"{name} cosets", entry.cosets)]
    return out


def mixed_answers(kind: str, seed: int, budget: int) -> list:
    """The tops of an upset of the verify mix, or an interval's socle
    entries, loaded from its instance JSON as the CLI does."""
    make = random_upset if kind == "upset" else random_interval
    m = instance_from_json(instance_to_json(make(seed, 2, budget)))
    return entry_answers(top_table(m) if kind == "upset" else socle_table(m).entries)


def first_difference(answers: list, recorded: dict) -> str | None:
    """The first answer key whose set differs from ``recorded``, if any."""
    keys = {k for k, _ in answers}
    if keys != set(recorded):
        return f"answer keys {sorted(keys ^ set(recorded))}"
    for key, s in answers:
        if not qe.equals(s, plset_from_json(recorded[key], key)):
            return key
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", metavar="FILE", help="write every answer as plset JSON")
    ap.add_argument("--against", metavar="FILE",
                    help="compare every answer with a --dump file by qe.equals")
    args = ap.parse_args(argv)
    recorded = None
    if args.against:
        with open(args.against) as fh:
            recorded = loads(fh.read())
    digest = hashlib.sha256()
    dump = {}

    def compare(instance: str, answers: list) -> bool:
        """Dump the answers and check them against the recorded ones."""
        if args.dump:
            dump[instance] = {key: plset_to_json(s) for key, s in answers}
        if recorded is None:
            return True
        if instance not in recorded:
            print(f"differs: {instance} is missing from {args.against}")
            return False
        key = first_difference(answers, recorded[instance])
        if key is not None:
            print(f"differs: {instance}: {key}")
            return False
        return True

    for seed, n, budget in CORPUS:
        answers, boundaries = instance_answers(seed, n, budget)
        digest.update(repr((seed, n, [rows(s) for _, s in answers])).encode())
        if not compare(f"n={n} seed={seed}", answers + boundaries):
            return 1
    for kind, seed, budget in MIXED:
        if not compare(f"{kind} n=2 seed={seed}", mixed_answers(kind, seed, budget)):
            return 1
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(dumps(dump))
    print(f"{digest.hexdigest()}  ({len(CORPUS)} instances)")
    if recorded is not None:
        print(f"every answer equals {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
