#!/usr/bin/env python3
"""Walk through the open-hypotenuse triangle example end to end.

Builds the downward closure of the unit triangle with its hypotenuse
removed, prints the socle table, associated faces, canonical decompositions,
and writes an SVG of the staircase with its cogenerator strata.
"""

import os
import sys

from staircase import (
    Downset,
    cell,
    halfspace,
    irreducible_family,
    plset,
    primary_decomposition,
    reconstruct,
    socle_table,
    verify_minimality,
)
from staircase.jsonio import dumps, plset_to_json, socle_table_to_json
from staircase.svg import render_plset


def main() -> None:
    triangle = Downset(
        plset(
            2,
            cell(
                2,
                halfspace([1, 0], 1, strict=True),
                halfspace([0, 1], 1, strict=True),
                halfspace([1, 1], 1, strict=True),
            ),
        )
    )
    table = socle_table(triangle)
    print("socle table:")
    print(dumps(socle_table_to_json(table)))
    print("associated faces:", sorted(sorted(f.coords) for f in table.associated_faces()))

    decomposition = primary_decomposition(triangle)
    print("primary components:", [sorted(t.coords) for t in decomposition.components])
    report = verify_minimality(decomposition)
    print("socle-minimal:", report.all_equal)

    family = irreducible_family(triangle)
    rebuilt = reconstruct(family, triangle)
    print("irreducible entries:", len(family.entries))
    print("reconstruction:", dumps(plset_to_json(rebuilt)))

    out = os.environ.get("TRIANGLE_SVG", "triangle.svg")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(render_plset(triangle.carrier, [-1, -1], [2, 2]))
    print(f"wrote {out}")


if __name__ == "__main__":
    sys.exit(main())
