"""Command-line surface.

Subcommands: validate, shape, boundary, frontier, socle, ass, top, att,
decompose-primary, decompose-irreducible, dense-check, fringe, dual,
discrete-decompose, verify, plot.

Each subcommand is declared once, in :func:`build_parser`: its options, the
instance kinds it takes and a handler from ``(instance, args)`` to the
result JSON.  ``validate`` and ``verify`` take any kind,
``discrete-decompose`` a discrete instance, ``shape``, ``boundary`` and
``frontier`` a downset, ``top`` and ``att`` an upset or an interval, and
every other command a downset, an upset or an interval.  :func:`run` reads
the instance, rejects a kind the command does not take, calls the handler
and writes its result to stdout as JSON (or to --out; ``plot`` writes its
SVG to --out and prints where).  Exit code 0 on success, 1 on domain/input
errors, 2 on internal check or oracle failures, an unclean ``verify``
report included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio, qe
from .decompose import (
    fringe_presentation, irreducible_family, primary_decomposition, reconstruct, verify_minimality,
)
from .discrete import DiscreteDownset, discrete_primary_decomposition, is_irredundant, socle_isomorphism_check
from .errors import InputFormatError, InternalCheckFailure, OracleMismatch, StaircaseError
from .geometry import (
    Downset, Face, Interval, Upset, reflect_downset, reflect_interval, reflect_upset, shape_at,
    upper_boundary,
)
from .jsonio import dumps, face_to_json, loads, plset_to_json
from .oracle import GridSpec, verify_instance
from .rationals import frac, parse_rational, vec
from .socle import (
    associated_faces, attached_faces, density_report, frontier, socle, socle_table, top, top_table,
)
from .svg import render_plset

_KIND = {Downset: "downset", Upset: "upset", Interval: "interval", DiscreteDownset: "discrete"}
_REAL = ("downset", "upset", "interval")
_ANY = _REAL + ("discrete",)


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise InputFormatError(message)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def _option_json(args, name: str):
    """The JSON value of option ``--name``; ``None`` when it is not given."""
    text = getattr(args, name)
    if text is None:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"--{name}: not JSON: {exc}") from exc


def _rationals(args, name: str, count: int):
    data = _option_json(args, name)
    if not isinstance(data, list) or len(data) != count:
        raise InputFormatError(f"--{name}: expected a list of {count} rationals")
    return vec(parse_rational(x) for x in data)


def _face(args, name: str, dim: int) -> Face | None:
    data = _option_json(args, name)
    return None if data is None else jsonio.face_from_json(data, dim, where=f"--{name}")


def _face_pair(args, names: tuple[str, str], dim: int) -> tuple[Face, Face] | None:
    """The faces of options ``--names[0]`` and ``--names[1]``: both or neither."""
    first, second = (_face(args, name, dim) for name in names)
    if (first is None) != (second is None):
        raise InputFormatError(
            f"{args.command} needs both --{names[0]} and --{names[1]}, or neither"
        )
    return None if first is None else (first, second)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an input error, as a failed read is
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _emit(payload, out: str | None) -> None:
    text = dumps(payload)
    if out:
        _write_text(out, text + "\n")
    else:
        print(text)


# Handlers: (instance, parsed arguments) -> result JSON ---------------------


def _shape(d, args):
    sh = shape_at(d, _rationals(args, "at", d.dim))
    return jsonio.shape_to_json(sh.faces, sh.minimal_faces())


def _boundary(d, args):
    sigma = _face(args, "sigma", d.dim)
    return {"sigma": face_to_json(sigma), "set": plset_to_json(upper_boundary(d, sigma).carrier)}


def _socle(m, args):
    faces = _face_pair(args, jsonio.SOCLE_FACES, m.dim)
    if faces is None:
        return jsonio.socle_table_to_json(socle_table(m))
    return jsonio.face_pair_entry_to_json(jsonio.SOCLE_FACES, socle(m, *faces))


def _top(m, args):
    faces = _face_pair(args, jsonio.TOP_FACES, m.dim)
    if faces is None:
        return jsonio.face_pair_table_to_json(m.dim, top_table(m), jsonio.TOP_FACES)
    return jsonio.face_pair_entry_to_json(jsonio.TOP_FACES, top(m, *faces))


def _face_list(name: str, faces) -> dict:
    return {name: [face_to_json(f) for f in sorted(faces, key=Face.sort_key)]}


def _decompose_primary(m, args):
    pd = primary_decomposition(m)
    fam = irreducible_family(m, table=pd.table)
    return jsonio.decomposition_to_json(pd, fam, verify_minimality(pd))


def _decompose_irreducible(m, args):
    pd = primary_decomposition(m)
    fam = irreducible_family(m, table=pd.table)
    recon = reconstruct(fam, m)
    payload = jsonio.decomposition_to_json(pd, fam)
    payload["checks"]["reconstructs_base"] = qe.equals(recon, m.carrier)
    return payload


def _dense_check(m, args):
    family = jsonio.family_from_json(_read_json(args.family), m.dim, where=args.family)
    rep = density_report(family, socle_table(m))
    failures = [
        {"tau": face_to_json(t), "sigma": face_to_json(s), "witness": [str(x) for x in w]}
        for t, s, w in rep.failures
    ]
    return {"dense": rep.dense, "failures": failures}


def _fringe(m, args):
    fp = fringe_presentation(m)
    return {
        "upset": plset_to_json(fp.upset.carrier),
        "hull": [plset_to_json(d.carrier) for d in fp.hull],
        "scalars": list(fp.scalars),
        "validation": fp.validation,
    }


def _dual(m, args):
    reflect = {Downset: reflect_downset, Upset: reflect_upset, Interval: reflect_interval}
    return jsonio.instance_to_json(reflect[type(m)](m))


def _discrete_decompose(d, args):
    dec = discrete_primary_decomposition(d)
    payload = jsonio.discrete_decomposition_to_json(dec)
    payload["checks"]["irredundant"] = is_irredundant(d, dec.irreducible_pieces())
    payload["checks"]["socle_isomorphism"] = socle_isomorphism_check(d, dec)
    return payload


def _verify(obj, args):
    grid = None
    if not isinstance(obj, DiscreteDownset):
        radius = frac(args.box)
        lo, hi = (-radius,) * obj.dim, (radius,) * obj.dim
        grid = GridSpec(lo, hi, frac(args.grid_step), frac(args.probe))
    return verify_instance(obj, grid).to_json()


def _plot(m, args):
    box = _rationals(args, "box", 4)
    out = args.svg or "staircase.svg"
    _write_text(out, render_plset(m.carrier, box[:2], box[2:], width=args.width))
    return {"written": out}


@functools.cache
def build_parser() -> _CliParser:
    """The argument tree, built once per process and shared by every call.

    Every subcommand is declared here and nowhere else: its options, the
    instance kinds it takes (``kinds``) and its ``handler``."""
    p = _CliParser(prog="staircase", description=__doc__)
    p.add_argument("--cell-limit", type=int, default=None, help="expansion guard")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, kinds: tuple[str, ...], handler, help: str, json_out: bool = True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("input", help="instance JSON file")
        if json_out:
            sp.add_argument("--out", default=None, help="write result JSON here")
        sp.set_defaults(kinds=kinds, handler=handler, out=None)
        return sp

    add("validate", _ANY, lambda obj, args: {"kind": _KIND[type(obj)], "valid": True},
        "load and validate an instance")
    sp = add("shape", ("downset",), _shape, "tangent-cone shape of a downset at a point")
    sp.add_argument("--at", required=True, help="point as a JSON list of rationals")
    sp = add("boundary", ("downset",), _boundary, "upper boundary of a downset atop a face")
    sp.add_argument("--sigma", required=True)
    add("frontier", ("downset",), lambda d, args: plset_to_json(frontier(d)),
        "closure minus the downset")
    sp = add("socle", _REAL, _socle, "socle entry (or full table without face arguments)")
    sp.add_argument("--tau", default=None)
    sp.add_argument("--sigma", default=None)
    add("ass", _REAL, lambda m, args: _face_list("associated", associated_faces(m)),
        "associated faces")
    sp = add("top", ("upset", "interval"), _top, "top entry (or full table) of an upset/interval")
    sp.add_argument("--rho", default=None)
    sp.add_argument("--xi", default=None)
    add("att", ("upset", "interval"), lambda m, args: _face_list("attached", attached_faces(m)),
        "attached faces")
    add("decompose-primary", _REAL, _decompose_primary, "canonical primary decomposition")
    add("decompose-irreducible", _REAL, _decompose_irreducible, "canonical irreducible family")
    sp = add("dense-check", _REAL, _dense_check, "density of a cogenerator family")
    sp.add_argument("--family", required=True, help="family JSON file")
    add("fringe", _REAL, _fringe, "fringe presentation of an interval")
    add("dual", _REAL, _dual, "Matlis dual instance (degree negation)")
    add("discrete-decompose", ("discrete",), _discrete_decompose,
        "decompositions of a monomial ideal")
    sp = add("verify", _ANY, _verify, "run the oracle suite on an instance")
    sp.add_argument("--grid-step", default="1/2")
    sp.add_argument("--probe", default="1/8")
    sp.add_argument("--box", default="3", help="grid radius (rational)")
    sp = add("plot", _REAL, _plot, "SVG picture of a planar instance", json_out=False)
    sp.add_argument("--out", dest="svg", default=None, help="write the SVG here (staircase.svg)")
    sp.add_argument("--box", required=True, help="viewport [x0,y0,x1,y1] as JSON")
    sp.add_argument("--width", type=int, default=480)
    return p


def run(argv: list[str]) -> int:
    """Run one command; ``--cell-limit`` applies to this call only."""
    previous_limit = qe.get_cell_limit()
    try:
        args = build_parser().parse_args(argv)
        if args.cell_limit is not None:
            if args.cell_limit < 1:
                raise InputFormatError(
                    f"--cell-limit: expected a positive integer, got {args.cell_limit}"
                )
            qe.set_cell_limit(args.cell_limit)
        obj = jsonio.instance_from_json(_read_json(args.input), where=args.input)
        kind = _KIND[type(obj)]
        if kind not in args.kinds:
            raise InputFormatError(
                f"{args.command} takes {', '.join(args.kinds)} instances, got {kind}"
            )
        payload = args.handler(obj, args)
        _emit(payload, args.out)
        return 2 if payload.get("clean") is False else 0  # an unclean verify report
    except (InternalCheckFailure, OracleMismatch) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 2
    except StaircaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        qe.set_cell_limit(previous_limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
