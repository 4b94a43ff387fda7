"""Command-line behavior: outputs, exit codes, round-trips, SVG."""

import warnings

import pytest

from staircase import (
    Upset,
    cell,
    equals,
    face,
    plset,
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


def test_fringe(capsys, tri_ray_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, data = run_json(capsys, "fringe", tri_ray_path)
    assert code == 0
    assert data["validation"] is True
    assert len(data["hull"]) == 2


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
    # floats rejected
    floaty = tmp_path / "floaty.json"
    floaty.write_text('{"kind":"downset","set":{"dim":1,"cells":[{"ineqs":[{"a":[0.5],"b":1}]}]}}')
    assert run(["validate", str(floaty)]) == 1
    # wrong instance kind for a command
    ideal = tmp_path / "i.json"
    ideal.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[1, 0]]}))
    assert run(["frontier", str(ideal)]) == 1
