"""JSON codecs for every external interface.

Rationals serialize as plain integers or ``"p/q"`` strings and round-trip
bit-exactly; floats anywhere in an input document are rejected.  Faces are
1-based sorted coordinate lists on the wire (0-based internally).  Decoding
errors carry the JSON path of the offending element.
"""

from __future__ import annotations

import json
from typing import Any

from .decompose import IrreducibleFamily, MinimalityReport, PrimaryDecomposition
from .discrete import DiscreteDecomposition, DiscreteDownset, DiscreteIdeal
from .errors import InputFormatError
from .geometry import Cell, Downset, Face, Interval, PLSet, Upset
from .rationals import HalfSpace, format_rational, parse_rational
from .socle import SocleEntry, SocleTable


def _reject_float(value: str) -> None:
    raise InputFormatError(
        f"floating-point literal {value!r} rejected: inputs must be exact rationals"
    )


def loads(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"malformed JSON: {exc}") from exc


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise InputFormatError(f"{where}: {message}")


# Rations / faces ---------------------------------------------------------


def face_to_json(f: Face) -> list[int]:
    return [i + 1 for i in sorted(f.coords)]


def face_from_json(obj: Any, dim: int, where: str = "face") -> Face:
    _expect(isinstance(obj, list), where, f"expected a list of axis indices, got {obj!r}")
    coords = set()
    for k, v in enumerate(obj):
        _expect(
            isinstance(v, int) and not isinstance(v, bool),
            f"{where}[{k}]",
            f"axis indices are 1-based integers, got {v!r}",
        )
        _expect(1 <= v <= dim, f"{where}[{k}]", f"axis {v} out of range 1..{dim}")
        coords.add(v - 1)
    return Face(dim, frozenset(coords))


# PL sets -----------------------------------------------------------------


def halfspace_to_json(h: HalfSpace) -> dict:
    return {
        "a": [format_rational(c) for c in h.normal],
        "b": format_rational(h.offset),
        "strict": h.strict,
    }


def halfspace_from_json(obj: Any, dim: int, where: str) -> HalfSpace:
    _expect(isinstance(obj, dict), where, "expected an inequality object")
    _expect("a" in obj and "b" in obj, where, "inequality needs fields 'a' and 'b'")
    a = obj["a"]
    _expect(isinstance(a, list) and len(a) == dim, f"{where}.a",
            f"normal must be a list of {dim} rationals")
    normal = []
    for k, vv in enumerate(a):
        try:
            normal.append(parse_rational(vv))
        except InputFormatError as exc:
            raise InputFormatError(f"{where}.a[{k}]: {exc}") from None
    try:
        offset = parse_rational(obj["b"])
    except InputFormatError as exc:
        raise InputFormatError(f"{where}.b: {exc}") from None
    strict = obj.get("strict", False)
    _expect(isinstance(strict, bool), f"{where}.strict", "must be true or false")
    return HalfSpace(tuple(normal), offset, strict)


def plset_to_json(s: PLSet) -> dict:
    return {
        "dim": s.dim,
        "cells": [
            {"ineqs": [halfspace_to_json(h) for h in c.constraints]} for c in s.cells
        ],
    }


def plset_from_json(obj: Any, where: str = "plset") -> PLSet:
    _expect(isinstance(obj, dict), where, "expected an object with 'dim' and 'cells'")
    dim = obj.get("dim")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            f"{where}.dim", f"expected a nonnegative integer dimension, got {dim!r}")
    cells_json = obj.get("cells", [])
    _expect(isinstance(cells_json, list), f"{where}.cells", "expected a list of cells")
    cells = []
    for i, cj in enumerate(cells_json):
        _expect(isinstance(cj, dict) and "ineqs" in cj, f"{where}.cells[{i}]",
                "expected an object with field 'ineqs'")
        ineqs = cj["ineqs"]
        _expect(isinstance(ineqs, list), f"{where}.cells[{i}].ineqs", "expected a list")
        cons = tuple(
            halfspace_from_json(hj, dim, f"{where}.cells[{i}].ineqs[{k}]")
            for k, hj in enumerate(ineqs)
        )
        cells.append(Cell(dim, cons))
    return PLSet(dim, tuple(cells))


# Instances ----------------------------------------------------------------


def instance_to_json(obj: Downset | Upset | Interval | DiscreteDownset) -> dict:
    if isinstance(obj, Downset):
        return {"kind": "downset", "set": plset_to_json(obj.carrier)}
    if isinstance(obj, Upset):
        return {"kind": "upset", "set": plset_to_json(obj.carrier)}
    if isinstance(obj, Interval):
        return {
            "kind": "interval",
            "upset": plset_to_json(obj.upset.carrier),
            "downset": plset_to_json(obj.downset.carrier),
        }
    if isinstance(obj, DiscreteDownset):
        return {
            "kind": "discrete",
            "n": obj.dim,
            "generators": [list(g) for g in obj.ideal.generators],
        }
    raise InputFormatError(f"cannot serialize {type(obj).__name__}")


def instance_from_json(obj: Any, where: str = "instance"):
    _expect(isinstance(obj, dict), where, "expected an instance object")
    kind = obj.get("kind")
    if kind is None and "generators" in obj and "n" in obj:
        kind = "discrete"  # bare monomial-ideal files carry no kind tag
    if kind == "downset":
        return Downset(plset_from_json(obj.get("set"), f"{where}.set"))
    if kind == "upset":
        return Upset(plset_from_json(obj.get("set"), f"{where}.set"))
    if kind == "interval":
        u = Upset(plset_from_json(obj.get("upset"), f"{where}.upset"))
        d = Downset(plset_from_json(obj.get("downset"), f"{where}.downset"))
        return Interval(u, d)
    if kind == "discrete":
        return discrete_from_json(obj, where)
    raise InputFormatError(
        f"{where}.kind: expected one of downset/upset/interval/discrete, got {kind!r}"
    )


def discrete_from_json(obj: Any, where: str = "ideal") -> DiscreteDownset:
    _expect(isinstance(obj, dict), where, "expected an object")
    n = obj.get("n")
    _expect(isinstance(n, int) and not isinstance(n, bool) and n > 0,
            f"{where}.n", f"expected a positive integer dimension, got {n!r}")
    gens_json = obj.get("generators", [])
    _expect(isinstance(gens_json, list), f"{where}.generators", "expected a list")
    gens = []
    for i, g in enumerate(gens_json):
        _expect(
            isinstance(g, list) and len(g) == n
            and all(isinstance(x, int) and not isinstance(x, bool) for x in g),
            f"{where}.generators[{i}]",
            f"expected a list of {n} integers",
        )
        gens.append(tuple(g))
    return DiscreteDownset(DiscreteIdeal(n, tuple(gens)))


# Derived structures -------------------------------------------------------


def shape_to_json(faces, minimal) -> dict:
    return {
        "faces": [face_to_json(f) for f in sorted(faces, key=Face.sort_key)],
        "minimal": [face_to_json(f) for f in sorted(minimal, key=Face.sort_key)],
    }


# Names of the two faces that key a table entry.
SOCLE_FACES = ("tau", "sigma")
TOP_FACES = ("rho", "xi")


def _entry_sets(e) -> dict:
    return {"degrees": plset_to_json(e.degrees), "cosets": plset_to_json(e.cosets)}


def face_pair_entry_to_json(names: tuple[str, str], e: SocleEntry) -> dict:
    """One socle or top entry with its two faces named: ``{tau, sigma,
    degrees, cosets}`` or ``{rho, xi, degrees, cosets}``."""
    return {names[0]: face_to_json(e.tau), names[1]: face_to_json(e.sigma), **_entry_sets(e)}


def face_pair_table_to_json(dim: int, entries: dict, names: tuple[str, str]) -> dict:
    """A socle or top table, each entry keyed ``tau=[..];sigma=[..]`` (or
    ``rho=[..];xi=[..]``)."""
    return {"dim": dim, "entries": {
        f"{names[0]}={face_to_json(e.tau)};{names[1]}={face_to_json(e.sigma)}": _entry_sets(e)
        for e in entries.values()
    }}


def socle_table_to_json(table: SocleTable) -> dict:
    return face_pair_table_to_json(table.dim, table.entries, SOCLE_FACES)


def _parse_face_pair_key(key: str, dim: int, where: str) -> tuple[Face, Face]:
    try:
        tau_part, sigma_part = key.split(";")
        tau_json = json.loads(tau_part.removeprefix("tau="))
        sigma_json = json.loads(sigma_part.removeprefix("sigma="))
    except Exception as exc:
        raise InputFormatError(
            f"{where}: key {key!r} is not of the form 'tau=[..];sigma=[..]'"
        ) from exc
    return (
        face_from_json(tau_json, dim, f"{where}.tau"),
        face_from_json(sigma_json, dim, f"{where}.sigma"),
    )


def family_from_json(obj: Any, where: str = "family") -> dict[tuple[Face, Face], PLSet]:
    """A socle-table-shaped family of coset sets, keyed by face pairs."""
    _expect(isinstance(obj, dict), where, "expected an object")
    dim = obj.get("dim")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim > 0,
            f"{where}.dim", "expected a positive integer dimension")
    entries = obj.get("entries")
    _expect(isinstance(entries, dict), f"{where}.entries", "expected an object")
    out: dict[tuple[Face, Face], PLSet] = {}
    for key, val in entries.items():
        tau, sigma = _parse_face_pair_key(key, dim, f"{where}.entries[{key!r}]")
        _expect(isinstance(val, dict) and "cosets" in val,
                f"{where}.entries[{key!r}]", "expected an object with 'cosets'")
        out[(tau, sigma)] = plset_from_json(val["cosets"], f"{where}.entries[{key!r}].cosets")
    return out


def decomposition_to_json(pd: PrimaryDecomposition, fam: IrreducibleFamily,
                          minimality: MinimalityReport | None = None) -> dict:
    comps = []
    for tau in sorted(pd.components, key=Face.sort_key):
        comp = pd.components[tau]
        comps.append(
            {
                "tau": face_to_json(tau),
                "carrier": plset_to_json(comp.interval.carrier),
                "hull": plset_to_json(comp.hull.carrier),
            }
        )
    irreducible = [
        {
            "tau": face_to_json(tau),
            "sigma": face_to_json(sigma),
            "A": plset_to_json(a),
        }
        for tau, sigma, a in fam.entries
    ]
    checks: dict[str, Any] = {"union_equals_base": True}
    if minimality is not None:
        checks["socle_minimal"] = minimality.all_equal
        checks["minimality_discrepancies"] = [
            {
                "tau": face_to_json(e.tau),
                "sigma": face_to_json(e.sigma),
                "extra": plset_to_json(e.extra),
                "missing": plset_to_json(e.missing),
                "duplicated": plset_to_json(e.duplicated),
            }
            for e in minimality.discrepancies()
        ]
    return {"components": comps, "irreducible": irreducible, "checks": checks}


def discrete_decomposition_to_json(dec: DiscreteDecomposition) -> dict:
    comps = []
    for tau in sorted(dec.components, key=lambda t: (len(t), sorted(t))):
        comp = dec.components[tau]
        comps.append(
            {
                "tau": [j + 1 for j in sorted(tau)],
                "cogenerators": [list(r) for r in comp.reps],
                "complement_ideal": [list(g) for g in comp.complement_ideal_generators()],
            }
        )
    irreducible = [
        {"tau": [j + 1 for j in sorted(tau)], "cogenerator": list(rep)}
        for tau, rep in dec.irreducible_pieces()
    ]
    return {
        "components": comps,
        "irreducible": irreducible,
        "checks": {"union_equals_base": True},
    }
