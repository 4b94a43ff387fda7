#!/usr/bin/env python3
"""Cross-check the discrete and real backends on random monomial ideals.

Each ideal is decomposed in the integer world (irredundancy and socle
isomorphism verified), then its cogenerator classes span a closed real
staircase whose closed socle strata must project back onto the discrete
cosets exactly.

Usage: discrete_vs_real.py [count] [dim]
"""

import os
import random
import sys

from staircase import (
    DiscreteDownset,
    DiscreteIdeal,
    correspondence_check,
    discrete_primary_decomposition,
    is_irredundant,
    socle_isomorphism_check,
)


def main(argv: list[str]) -> int:
    count = int(argv[1]) if len(argv) > 1 else 25
    dim = int(argv[2]) if len(argv) > 2 else 2
    rng = random.Random(int(os.environ.get("STAIRCASE_SEED", "0")))
    bad = 0
    for case in range(count):
        gens = tuple(
            tuple(rng.randint(0, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 6))
        )
        d = DiscreteDownset(DiscreteIdeal(dim, gens))
        decomposition = discrete_primary_decomposition(d)
        assert is_irredundant(d, decomposition.irreducible_pieces())
        assert socle_isomorphism_check(d, decomposition)
        report = correspondence_check(decomposition)
        status = "ok" if report.clean else "MISMATCH"
        bad += 0 if report.clean else 1
        print(f"[{case:>3}] gens={sorted(d.ideal.generators)} "
              f"components={len(decomposition.components)} {status}")
    print(f"{count - bad}/{count} clean")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
