"""Command-line behavior: outputs, exit codes, round-trips, SVG."""

import warnings

import pytest

from staircase import (
    Upset,
    cell,
    equals,
    face,
    plset,
    random_downset,
    random_upset,
    socle_table,
    top_table,
)
from staircase.cli import run
from staircase.jsonio import (
    dumps,
    instance_to_json,
    loads,
    plset_from_json,
    plset_to_json,
    socle_table_to_json,
)

from conftest import hs


@pytest.fixture()
def triangle_path(tmp_path, triangle_quotient):
    p = tmp_path / "triangle.json"
    p.write_text(dumps(instance_to_json(triangle_quotient)))
    return str(p)


@pytest.fixture()
def tri_ray_path(tmp_path, triangle_plus_ray):
    p = tmp_path / "triray.json"
    p.write_text(dumps(instance_to_json(triangle_plus_ray)))
    return str(p)


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (loads(out) if out.strip() else None)


def test_validate(capsys, triangle_path):
    code, data = run_json(capsys, "validate", triangle_path)
    assert code == 0
    assert data == {"kind": "downset", "valid": True}


def test_socle_entry(capsys, triangle_path, triangle_quotient):
    code, data = run_json(
        capsys, "socle", "--tau", "[]", "--sigma", "[1]", triangle_path
    )
    assert code == 0
    got = plset_from_json(data["degrees"])
    table = socle_table(triangle_quotient)
    assert equals(got, table.entry(face(2), face(2, [0])).degrees)


def test_socle_full_table_roundtrip(capsys, triangle_path, triangle_quotient):
    code, data = run_json(capsys, "socle", triangle_path)
    assert code == 0
    table = socle_table(triangle_quotient)
    assert data == socle_table_to_json(table)


def test_shape_boundary_frontier_ass(capsys, triangle_path):
    code, data = run_json(capsys, "shape", "--at", '["1", 0]', triangle_path)
    assert code == 0 and data["minimal"] == [[1]]
    code, data = run_json(capsys, "boundary", "--sigma", "[1]", triangle_path)
    assert code == 0 and data["sigma"] == [1]
    code, data = run_json(capsys, "frontier", triangle_path)
    assert code == 0 and data["cells"]
    code, data = run_json(capsys, "ass", triangle_path)
    assert code == 0 and data == {"associated": [[]]}


def test_decompose_primary_triray(capsys, tri_ray_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, data = run_json(capsys, "decompose-primary", tri_ray_path)
    assert code == 0
    taus = [c["tau"] for c in data["components"]]
    assert taus == [[], [1]]
    assert data["checks"]["union_equals_base"] is True
    assert data["checks"]["socle_minimal"] is False
    disc = data["checks"]["minimality_discrepancies"]
    assert len(disc) == 1 and disc[0]["tau"] == [] and disc[0]["sigma"] == [1]


def test_decompose_irreducible(capsys, triangle_path):
    code, data = run_json(capsys, "decompose-irreducible", triangle_path)
    assert code == 0
    assert data["checks"]["reconstructs_base"] is True
    assert len(data["irreducible"]) == 2


def test_dense_check(capsys, tmp_path, triangle_path, triangle_quotient):
    table = socle_table(triangle_quotient)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(dumps(socle_table_to_json(table)))
    code, data = run_json(capsys, "dense-check", "--family", str(fam_path), triangle_path)
    assert code == 0 and data["dense"] is True


def test_dense_check_rejects_a_family_of_another_dimension(capsys, tmp_path, triangle_quotient):
    # a family of the planar triangle checked against a 3-dimensional downset,
    # with its entries and without any
    instance = tmp_path / "d3.json"
    instance.write_text(dumps(instance_to_json(random_downset(10014, 3, 5))))
    family = socle_table_to_json(socle_table(triangle_quotient))
    for entries in (family["entries"], {}):
        fam_path = tmp_path / "family.json"
        fam_path.write_text(dumps({**family, "entries": entries}))
        code = run(["dense-check", "--family", str(fam_path), str(instance)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{fam_path}.dim" in err and "dimension 2" in err and "dimension 3" in err


def test_dense_check_rejects_cosets_of_another_dimension(capsys, tmp_path):
    # the cosets along tau=[1] (dimension 1) filed under tau=[] (dimension 2)
    d = random_downset(3, 2, 8)
    instance = tmp_path / "d.json"
    instance.write_text(dumps(instance_to_json(d)))
    family = socle_table_to_json(socle_table(d))
    entries = family["entries"]
    entries["tau=[];sigma=[]"] = entries["tau=[1];sigma=[1]"]
    fam_path = tmp_path / "family.json"
    fam_path.write_text(dumps(family))
    code = run(["dense-check", "--family", str(fam_path), str(instance)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{fam_path}.entries['tau=[];sigma=[]'].cosets.dim" in err
    assert "dimension 1" in err and "expected 2" in err


def test_fringe(capsys, tri_ray_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, data = run_json(capsys, "fringe", tri_ray_path)
    assert code == 0
    assert data["validation"] is True
    assert len(data["hull"]) == 2


def test_upset_instance_commands(capsys, tmp_path):
    # A bare upset instance runs through the downset/interval commands.
    p = tmp_path / "upset.json"
    p.write_text(dumps(instance_to_json(random_upset(21000, 2, 4))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cmd in ("socle", "ass", "decompose-primary"):
            assert run_json(capsys, cmd, str(p))[0] == 0
        code, data = run_json(capsys, "decompose-irreducible", str(p))
        assert code == 0 and data["checks"]["reconstructs_base"] is True
        code, data = run_json(capsys, "fringe", str(p))
        assert code == 0 and data["validation"] is True


def test_dual_roundtrip(capsys, tmp_path, triangle_quotient):
    p = tmp_path / "d.json"
    p.write_text(dumps(instance_to_json(triangle_quotient)))
    code, data = run_json(capsys, "dual", str(p))
    assert code == 0 and data["kind"] == "upset"
    q = tmp_path / "u.json"
    q.write_text(dumps(data))
    code, data2 = run_json(capsys, "dual", str(q))
    assert code == 0 and data2["kind"] == "downset"
    back = plset_from_json(data2["set"])
    assert equals(back, triangle_quotient.carrier)


def test_top_att(capsys, tmp_path):
    u = Upset(plset(2, cell(2, hs([-1, -1], -1, True))))
    p = tmp_path / "u.json"
    p.write_text(dumps(instance_to_json(u)))
    code, data = run_json(capsys, "top", "--rho", "[]", "--xi", "[1]", str(p))
    assert code == 0 and data["degrees"]["cells"]
    code, data = run_json(capsys, "att", str(p))
    assert code == 0 and data == {"attached": [[]]}


def test_top_full_table(capsys, tmp_path):
    u = Upset(plset(2, cell(2, hs([-1, -1], -1, True))))
    p = tmp_path / "u.json"
    p.write_text(dumps(instance_to_json(u)))
    code, data = run_json(capsys, "top", str(p))
    assert code == 0 and data["dim"] == 2
    table = top_table(u)
    expected_keys = {
        f"rho={[i + 1 for i in sorted(rho.coords)]};xi={[i + 1 for i in sorted(xi.coords)]}"
        for rho, xi in table
    }
    assert set(data["entries"]) == expected_keys
    assert "rho=[];xi=[1, 2]" in expected_keys
    for (rho, xi), e in table.items():
        key = f"rho={[i + 1 for i in sorted(rho.coords)]};xi={[i + 1 for i in sorted(xi.coords)]}"
        got = data["entries"][key]
        assert got == {"degrees": plset_to_json(e.degrees), "cosets": plset_to_json(e.cosets)}
        assert equals(plset_from_json(got["degrees"]), e.degrees)
        assert equals(plset_from_json(got["cosets"]), e.cosets)


def test_discrete_decompose(capsys, tmp_path):
    p = tmp_path / "ideal.json"
    p.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[2, 0], [1, 1]]}))
    code, data = run_json(capsys, "discrete-decompose", str(p))
    assert code == 0
    assert data["checks"] == {
        "irredundant": True,
        "socle_isomorphism": True,
        "union_equals_base": True,
    }
    gens = {tuple(map(tuple, c["complement_ideal"])) for c in data["components"]}
    assert gens == {((1, 0),), ((0, 1), (2, 0))}


def test_verify_clean(capsys, triangle_path):
    code, data = run_json(
        capsys, "verify", "--grid-step", "1/2", "--probe", "1/8", "--box", "2", triangle_path
    )
    assert code == 0
    assert data["clean"] is True


def test_verify_interval_instance(capsys, tri_ray_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, data = run_json(
            capsys, "verify", "--grid-step", "1/2", "--probe", "1/8", "--box", "2", tri_ray_path
        )
    assert code == 0
    assert data["clean"] is True
    names = [c["name"] for c in data["checks"]]
    assert any(n.startswith("interval-boundary-probe") for n in names)


def test_plot_svg(capsys, tmp_path, triangle_path):
    out = tmp_path / "t.svg"
    code, _ = run_json(
        capsys, "plot", "--box", "[-2,-2,2,2]", "--out", str(out), triangle_path
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg  # strict boundary pieces are dashed


def test_failed_out_write_exits_1(capsys, tmp_path, triangle_path):
    missing = tmp_path / "missing"
    assert run(["validate", "--out", str(missing / "x.json"), triangle_path]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert run(["plot", "--box", "[-2,-2,2,2]", "--out", str(missing / "x.svg"),
                triangle_path]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("box, width", [
    ("[-2,-2,2,2]", "-5"), ("[-2,-2,2,2]", "0"), ("[0,0,1000,1]", "480"),
])
def test_plot_rejects_a_degenerate_picture(capsys, tmp_path, triangle_path, box, width):
    out = tmp_path / "t.svg"
    assert run(["plot", "--box", box, "--width", width, "--out", str(out), triangle_path]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_emitted_plsets_reparse(capsys, triangle_path, triangle_quotient):
    code, data = run_json(capsys, "boundary", "--sigma", "[1,2]", triangle_path)
    assert code == 0
    back = plset_from_json(data["set"])
    from staircase import closure

    assert equals(back, closure(triangle_quotient.carrier))


def test_cell_limit_flag(tmp_path, triangle_path):
    from staircase.qe import get_cell_limit

    previous = get_cell_limit()
    try:
        # an absurdly small budget trips the guard during decomposition
        assert run(["--cell-limit", "2", "decompose-primary", triangle_path]) == 1
        # the flag applies to that call only, whether it fails or succeeds
        assert get_cell_limit() == previous
        assert run(["--cell-limit", "7", "validate", triangle_path]) == 0
        assert get_cell_limit() == previous
        # a limit below 1 is an input error, not a crash, and changes nothing
        assert run(["--cell-limit", "0", "validate", triangle_path]) == 1
        assert run(["--cell-limit", "-3", "validate", triangle_path]) == 1
        assert get_cell_limit() == previous
    finally:
        from staircase.qe import set_cell_limit

        set_cell_limit(previous)


def test_error_exit_codes(capsys, tmp_path, triangle_path):
    # unknown subcommand -> domain error
    assert run(["frobnicate", triangle_path]) == 1
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == 1
    # face out of range
    assert run(["socle", "--tau", "[9]", "--sigma", "[1]", triangle_path]) == 1
    # a nadir that does not contain tau
    assert run(["socle", "--tau", "[1]", "--sigma", "[]", triangle_path]) == 1
    # floats rejected
    floaty = tmp_path / "floaty.json"
    floaty.write_text('{"kind":"downset","set":{"dim":1,"cells":[{"ineqs":[{"a":[0.5],"b":1}]}]}}')
    assert run(["validate", str(floaty)]) == 1
    # wrong instance kind for a command
    ideal = tmp_path / "i.json"
    ideal.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[1, 0]]}))
    assert run(["frontier", str(ideal)]) == 1


# Instance kinds each command takes; every other kind is an input error.
REAL = {"downset", "upset", "interval"}
KINDS = {
    "validate": REAL | {"discrete"},
    "verify": REAL | {"discrete"},
    "discrete-decompose": {"discrete"},
    "shape": {"downset"},
    "boundary": {"downset"},
    "frontier": {"downset"},
    "top": {"upset", "interval"},
    "att": {"upset", "interval"},
    **{
        cmd: REAL
        for cmd in (
            "socle", "ass", "decompose-primary", "decompose-irreducible",
            "dense-check", "fringe", "dual", "plot",
        )
    },
}


def subcommands():
    from staircase.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if a.dest == "command")
    return set(sub.choices)


def test_each_command_rejects_the_kinds_it_does_not_take(
    capsys, tmp_path, triangle_path, tri_ray_path
):
    upset = tmp_path / "upset.json"
    upset.write_text(dumps(instance_to_json(random_upset(21000, 2, 4))))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[1, 0]]}))
    paths = {"downset": triangle_path, "upset": str(upset), "interval": tri_ray_path,
             "discrete": str(ideal)}
    required = {"shape": ["--at", "[0, 0]"], "boundary": ["--sigma", "[1]"],
                "dense-check": ["--family", str(ideal)], "plot": ["--box", "[-1,-1,1,1]"]}
    assert set(KINDS) == subcommands()
    for cmd, kinds in KINDS.items():
        for kind in set(paths) - kinds:
            assert run([cmd, *required.get(cmd, []), paths[kind]]) == 1, (cmd, kind)
            err = capsys.readouterr().err
            assert cmd in err and kind in err, (cmd, kind, err)
            assert all(k in err for k in kinds), (cmd, kind, err)


def test_unclean_verify_exits_2_and_still_writes_its_report(capsys, tmp_path, monkeypatch):
    from staircase import oracle

    def mismatching(decomposition):
        report = oracle.Report("real-discrete-correspondence")
        report.record((), "discrete cosets", "real closed stratum")
        return report

    monkeypatch.setattr(oracle, "correspondence_check", mismatching)
    ideal = tmp_path / "ideal.json"
    ideal.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[2, 0], [1, 1]]}))
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out), str(ideal)]) == 2
    report = loads(out.read_text())
    assert report["clean"] is False
    assert [c["name"] for c in report["checks"] if c["mismatches"]] == [
        "real-discrete-correspondence"
    ]


def test_docs_name_exactly_the_parser_subcommands():
    import re
    from pathlib import Path

    from staircase import cli

    listed = re.search(r"Subcommands: (.*?)\.\s", cli.__doc__, re.S).group(1)
    assert {name.strip() for name in listed.split(",")} == subcommands()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    assert {line.split()[1] for line in block.splitlines()} == subcommands()
