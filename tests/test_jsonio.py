"""JSON codecs: schemas, exact round-trips, float rejection."""

from fractions import Fraction

import pytest

from staircase import (
    DiscreteDownset,
    DiscreteIdeal,
    Downset,
    InputFormatError,
    cell,
    equals,
    face,
    plset,
    socle_table,
)
from staircase.jsonio import (
    dumps,
    face_from_json,
    face_to_json,
    family_from_json,
    instance_from_json,
    instance_to_json,
    loads,
    plset_from_json,
    plset_to_json,
    socle_table_to_json,
)

from conftest import hs, rows_of


def F(a, b=1):
    return Fraction(a, b)


def test_plset_roundtrip_bit_exact():
    s = plset(
        2,
        cell(2, hs([F(1, 3), F(-2, 7)], F(22, 7), True), hs([1, 1], -3)),
        cell(2),
    )
    back = plset_from_json(loads(dumps(plset_to_json(s))))
    # exact numerators and denominators, row for row
    assert back.dim == s.dim
    assert rows_of(back.cells) == rows_of(s.cells)
    assert equals(back, s)


def test_rational_forms():
    payload = {
        "dim": 1,
        "cells": [{"ineqs": [{"a": ["2/4"], "b": 3, "strict": False}]}],
    }
    s = plset_from_json(payload)
    h = s.cells[0].constraints[0]
    assert h == hs([F(1, 2)], 3)
    assert (h.normal, h.offset) == ((1,), F(6))
    # Rows are written back in canonical form.
    assert plset_to_json(s)["cells"][0]["ineqs"] == [{"a": [1], "b": 6, "strict": False}]


def test_floats_rejected():
    with pytest.raises(InputFormatError, match="float"):
        loads('{"dim": 1, "cells": [{"ineqs": [{"a": [0.5], "b": 1}]}]}')


def test_bad_rational_string_rejected():
    with pytest.raises(InputFormatError, match=r"a\[0\]"):
        plset_from_json({"dim": 1, "cells": [{"ineqs": [{"a": ["x"], "b": 1}]}]})


def test_face_wire_format_is_one_based():
    f = face(3, [0, 2])
    assert face_to_json(f) == [1, 3]
    assert face_from_json([1, 3], 3) == f
    with pytest.raises(InputFormatError, match="out of range"):
        face_from_json([4], 3)


def test_instance_roundtrip_downset(triangle_quotient):
    data = instance_to_json(triangle_quotient)
    assert data["kind"] == "downset"
    back = instance_from_json(loads(dumps(data)))
    assert isinstance(back, Downset)
    assert equals(back.carrier, triangle_quotient.carrier)


def test_instance_roundtrip_interval(triangle_plus_ray):
    data = instance_to_json(triangle_plus_ray)
    back = instance_from_json(loads(dumps(data)))
    assert equals(back.carrier, triangle_plus_ray.carrier)


def test_instance_validation_on_load():
    bad = {"kind": "downset", "set": {"dim": 1, "cells": [{"ineqs": [{"a": [-1], "b": 0}]}]}}
    from staircase import ValidationError

    with pytest.raises(ValidationError):
        instance_from_json(bad)


def test_discrete_roundtrip():
    d = DiscreteDownset(DiscreteIdeal(2, ((2, 0), (1, 1))))
    back = instance_from_json(loads(dumps(instance_to_json(d))))
    assert isinstance(back, DiscreteDownset)
    assert back.ideal.generators == d.ideal.generators


def test_discrete_bare_schema_accepted():
    back = instance_from_json({"n": 2, "generators": [[2, 0], [1, 1]]})
    assert isinstance(back, DiscreteDownset)
    assert back.ideal.generators == ((1, 1), (2, 0))


def test_socle_table_json_and_family_parse(triangle_quotient):
    table = socle_table(triangle_quotient)
    data = socle_table_to_json(table)
    assert data["dim"] == 2
    assert "tau=[];sigma=[1]" in data["entries"]
    fam = family_from_json(loads(dumps(data)))
    key = (face(2), face(2, [0]))
    assert equals(fam[key], table.entry(*key).cosets)


def test_unknown_kind_rejected():
    with pytest.raises(InputFormatError, match="kind"):
        instance_from_json({"kind": "mystery"})
