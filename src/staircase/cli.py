"""Command-line surface.

Subcommands: validate, shape, boundary, frontier, socle, ass, top, att,
decompose-primary, decompose-irreducible, dense-check, fringe, dual,
discrete-decompose, verify, plot.  Results go to stdout as JSON (or to
--out); exit code 0 on success, 1 on domain/input errors, 2 on internal
check or oracle failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio, qe
from .decompose import (
    fringe_presentation,
    irreducible_family,
    primary_decomposition,
    reconstruct,
    verify_minimality,
)
from .discrete import DiscreteDownset, discrete_primary_decomposition, is_irredundant, socle_isomorphism_check
from .errors import (
    InputFormatError,
    InternalCheckFailure,
    OracleMismatch,
    StaircaseError,
)
from .geometry import (
    Downset,
    Face,
    Interval,
    Upset,
    frontier,
    reflect_downset,
    reflect_interval,
    reflect_upset,
    shape_at,
    upper_boundary,
)
from .jsonio import dumps, face_to_json, loads, plset_to_json
from .oracle import GridSpec, verify_instance
from .rationals import frac, parse_rational, vec
from .socle import (
    associated_faces,
    attached_faces,
    density_report,
    socle,
    socle_table,
    top,
    top_table,
)
from .svg import write_plset_svg


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise InputFormatError(message)


def _read_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    return jsonio.instance_from_json(loads(text), where=path)


def _parse_face(text: str | None, dim: int, name: str) -> Face | None:
    if text is None:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"--{name}: not a JSON list: {exc}") from exc
    return jsonio.face_from_json(data, dim, where=f"--{name}")


def _parse_point(text: str, dim: int):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"--at: not a JSON list: {exc}") from exc
    if not isinstance(data, list) or len(data) != dim:
        raise InputFormatError(f"--at: expected a list of {dim} rationals")
    return vec(parse_rational(x) for x in data)


def _emit(payload, out: str | None) -> None:
    text = dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require_downset(obj, what: str) -> Downset:
    if not isinstance(obj, Downset):
        raise InputFormatError(f"{what} requires a downset instance")
    return obj


@functools.cache
def build_parser() -> _CliParser:
    """The argument tree, built once per process and shared by every call."""
    p = _CliParser(prog="staircase", description=__doc__)
    p.add_argument("--cell-limit", type=int, default=None, help="expansion guard")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("input", help="instance JSON file")
        sp.add_argument("--out", default=None, help="write result JSON here")
        return sp

    add("validate", help="load and validate an instance")
    sp = add("shape", help="tangent-cone shape of a downset at a point")
    sp.add_argument("--at", required=True, help="point as a JSON list of rationals")
    sp = add("boundary", help="upper boundary of a downset atop a face")
    sp.add_argument("--sigma", required=True)
    add("frontier", help="closure minus the downset")
    sp = add("socle", help="socle entry (or full table without face arguments)")
    sp.add_argument("--tau", default=None)
    sp.add_argument("--sigma", default=None)
    add("ass", help="associated faces")
    sp = add("top", help="top entry (or full table) of an upset/interval")
    sp.add_argument("--rho", default=None)
    sp.add_argument("--xi", default=None)
    add("att", help="attached faces")
    add("decompose-primary", help="canonical primary decomposition")
    add("decompose-irreducible", help="canonical irreducible family")
    sp = add("dense-check", help="density of a cogenerator family")
    sp.add_argument("--family", required=True, help="family JSON file")
    add("fringe", help="fringe presentation of an interval")
    add("dual", help="Matlis dual instance (degree negation)")
    add("discrete-decompose", help="decompositions of a monomial ideal")
    sp = add("verify", help="run the oracle suite on an instance")
    sp.add_argument("--grid-step", default="1/2")
    sp.add_argument("--probe", default="1/8")
    sp.add_argument("--box", default="3", help="grid radius (rational)")
    sp = add("plot", help="SVG picture of a planar instance")
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
        return _dispatch(args)
    except (InternalCheckFailure, OracleMismatch) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 2
    except StaircaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        qe.set_cell_limit(previous_limit)


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "discrete-decompose":
        obj = _read_instance(args.input)
        if not isinstance(obj, DiscreteDownset):
            raise InputFormatError("discrete-decompose requires a discrete instance")
        dec = discrete_primary_decomposition(obj)
        payload = jsonio.discrete_decomposition_to_json(dec)
        payload["checks"]["irredundant"] = is_irredundant(obj, dec.irreducible_pieces())
        payload["checks"]["socle_isomorphism"] = socle_isomorphism_check(obj, dec)
        _emit(payload, args.out)
        return 0

    obj = _read_instance(args.input)

    if cmd == "validate":
        _emit({"kind": jsonio.instance_to_json(obj)["kind"], "valid": True}, args.out)
        return 0

    if cmd == "verify":
        if isinstance(obj, DiscreteDownset):
            report = verify_instance(obj)
        else:
            radius = frac(args.box)
            n = obj.dim
            grid = GridSpec(
                tuple(-radius for _ in range(n)),
                tuple(radius for _ in range(n)),
                frac(args.grid_step),
                frac(args.probe),
            )
            report = verify_instance(obj, grid)
        _emit(report.to_json(), args.out)
        return 0 if report.clean else 2

    if cmd == "dual":
        if isinstance(obj, DiscreteDownset):
            raise InputFormatError("dual applies to real instances")
        if isinstance(obj, Downset):
            dual = reflect_downset(obj)
        elif isinstance(obj, Upset):
            dual = reflect_upset(obj)
        else:
            dual = reflect_interval(obj)
        _emit(jsonio.instance_to_json(dual), args.out)
        return 0

    if cmd == "plot":
        try:
            box = json.loads(args.box)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"--box: {exc}") from exc
        if not isinstance(box, list) or len(box) != 4:
            raise InputFormatError("--box: expected [x0, y0, x1, y1]")
        coords = [parse_rational(x) for x in box]
        carrier = obj.carrier if not isinstance(obj, DiscreteDownset) else None
        if carrier is None:
            raise InputFormatError("plot applies to real instances")
        out = args.out or "staircase.svg"
        write_plset_svg(carrier, coords[:2], coords[2:], out, width=args.width)
        print(dumps({"written": out}))
        return 0

    if isinstance(obj, DiscreteDownset):
        raise InputFormatError(f"{cmd} applies to real instances")

    n = obj.dim
    if cmd == "shape":
        d = _require_downset(obj, "shape")
        sh = shape_at(d, _parse_point(args.at, n))
        _emit(jsonio.shape_to_json(sh.faces, sh.minimal_faces()), args.out)
        return 0

    if cmd == "boundary":
        d = _require_downset(obj, "boundary")
        sigma = _parse_face(args.sigma, n, "sigma")
        bd = upper_boundary(d, sigma)
        _emit({"sigma": face_to_json(sigma), "set": plset_to_json(bd.carrier)}, args.out)
        return 0

    if cmd == "frontier":
        d = _require_downset(obj, "frontier")
        _emit(plset_to_json(frontier(d)), args.out)
        return 0

    if cmd == "socle":
        tau = _parse_face(args.tau, n, "tau")
        sigma = _parse_face(args.sigma, n, "sigma")
        if (tau is None) != (sigma is None):
            raise InputFormatError("socle needs both --tau and --sigma, or neither")
        if tau is None:
            _emit(jsonio.socle_table_to_json(socle_table(obj)), args.out)
        else:
            e = socle(obj, tau, sigma)
            _emit(jsonio.face_pair_entry_to_json(jsonio.SOCLE_FACES, (tau, sigma), e), args.out)
        return 0

    if cmd == "ass":
        faces = sorted(associated_faces(obj), key=Face.sort_key)
        _emit({"associated": [face_to_json(f) for f in faces]}, args.out)
        return 0

    if cmd == "top":
        if not isinstance(obj, (Upset, Interval)):
            raise InputFormatError("top requires an upset or interval instance")
        rho = _parse_face(args.rho, n, "rho")
        xi = _parse_face(args.xi, n, "xi")
        if (rho is None) != (xi is None):
            raise InputFormatError("top needs both --rho and --xi, or neither")
        if rho is None:
            _emit(jsonio.face_pair_table_to_json(n, top_table(obj), jsonio.TOP_FACES), args.out)
        else:
            e = top(obj, rho, xi)
            _emit(jsonio.face_pair_entry_to_json(jsonio.TOP_FACES, (rho, xi), e), args.out)
        return 0

    if cmd == "att":
        if not isinstance(obj, (Upset, Interval)):
            raise InputFormatError("att requires an upset or interval instance")
        faces = sorted(attached_faces(obj), key=Face.sort_key)
        _emit({"attached": [face_to_json(f) for f in faces]}, args.out)
        return 0

    if cmd == "decompose-primary":
        pd = primary_decomposition(obj)
        fam = irreducible_family(obj, table=pd.table)
        rep = verify_minimality(pd)
        _emit(jsonio.decomposition_to_json(pd, fam, rep), args.out)
        return 0

    if cmd == "decompose-irreducible":
        pd = primary_decomposition(obj)
        fam = irreducible_family(obj, table=pd.table)
        recon = reconstruct(fam, obj)
        payload = jsonio.decomposition_to_json(pd, fam)
        payload["checks"]["reconstructs_base"] = qe.equals(recon, obj.carrier)
        _emit(payload, args.out)
        return 0

    if cmd == "dense-check":
        try:
            with open(args.family, "r", encoding="utf-8") as fh:
                fam_json = loads(fh.read())
        except OSError as exc:
            raise InputFormatError(f"cannot read {args.family}: {exc}") from exc
        family = jsonio.family_from_json(fam_json, where=args.family)
        table = socle_table(obj)
        rep = density_report(family, table)
        _emit(
            {
                "dense": rep.dense,
                "failures": [
                    {
                        "tau": face_to_json(t),
                        "sigma": face_to_json(s),
                        "witness": [str(x) for x in w],
                    }
                    for t, s, w in rep.failures
                ],
            },
            args.out,
        )
        return 0

    if cmd == "fringe":
        fp = fringe_presentation(obj)
        _emit(
            {
                "upset": plset_to_json(fp.upset.carrier),
                "hull": [plset_to_json(d.carrier) for d in fp.hull],
                "scalars": list(fp.scalars),
                "validation": fp.validation,
            },
            args.out,
        )
        return 0

    raise InputFormatError(f"unknown subcommand {cmd!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
