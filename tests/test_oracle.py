"""Oracle machinery: grids, probes, random generators, cross-checks."""

import importlib
from fractions import Fraction

import pytest

from staircase import (
    DiscreteDownset,
    DiscreteIdeal,
    GridSpec,
    InternalCheckFailure,
    OracleMismatch,
    ValidationError,
    all_faces,
    cell,
    correspondence_check,
    default_grid,
    discrete_primary_decomposition,
    equals,
    face,
    is_downset,
    plset,
    point_set,
    random_downset,
    random_interval,
    random_upset,
    real_staircase,
    sample_check_membership,
    socle_table,
    union,
    verify_instance,
)
from staircase.oracle import (
    boundary_probe_check,
    shape_consistency_check,
    sigma_closure_probe_check,
)

from conftest import hs


def F(a, b=1):
    return Fraction(a, b)


def test_gridspec_invariants():
    with pytest.raises(ValidationError):
        GridSpec((F(0),), (F(1),), F(0), F(1, 8))
    with pytest.raises(ValidationError):
        GridSpec((F(0),), (F(1),), F(1, 2), F(1, 2))
    g = GridSpec((F(0), F(0)), (F(1), F(1)), F(1, 2), F(1, 8))
    assert len(list(g.points())) == 9


def test_membership_self_check(half_plane):
    report = sample_check_membership(
        half_plane.carrier, default_grid(2, 2), lambda p: p[0] + p[1] < 1
    )
    assert report.clean and report.checked > 0


def test_membership_mismatch_carries_witness(half_plane, closed_principal):
    report = sample_check_membership(
        half_plane.carrier, default_grid(2, 2), predicate=closed_principal.carrier.contains
    )
    assert not report.clean
    assert report.mismatches[0]["point"]
    with pytest.raises(OracleMismatch):
        report.raise_if_dirty()


def test_verify_membership_pass_catches_a_corrupted_carrier(monkeypatch):
    # the carrier gains the grid point (1, 0), which lies outside the upset
    # meet downset; verify's membership pass must see it before the
    # decomposition refuses the instance
    iv = random_interval(22000, 2, 3)
    corner = (F(1), F(0))
    assert not iv.carrier.contains(corner)
    object.__setattr__(iv, "carrier", union(iv.carrier, point_set(corner)))
    oracle = importlib.import_module("staircase.oracle")
    passes = []

    def recorded(*args, **kwargs):
        passes.append(sample_check_membership(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(oracle, "sample_check_membership", recorded)
    with pytest.raises(InternalCheckFailure):
        verify_instance(iv, default_grid(2, 2))
    assert [m["point"] for m in passes[0].mismatches] == [["1", "0"]]


def test_boundary_probe_and_shape_checks(triangle_quotient):
    g = default_grid(2, 2)
    for sigma in all_faces(2):
        assert boundary_probe_check(triangle_quotient, sigma, g).clean
        assert shape_consistency_check(triangle_quotient, g, sigma).clean


def test_sigma_closure_probe(triangle_quotient):
    table = socle_table(triangle_quotient)
    e = table.entry(face(2), face(2, [0]))
    report = sigma_closure_probe_check(e.cosets, face(2, [0]), face(2), default_grid(2, 2))
    assert report.clean


def test_random_downset_deterministic_and_valid():
    a = random_downset(7, 2, 6)
    b = random_downset(7, 2, 6)
    assert equals(a.carrier, b.carrier)
    for seed in range(10):
        d = random_downset(seed, 2, 6)
        assert is_downset(d.carrier)
        assert 0 < len(d.carrier.cells) <= 6


def test_random_interval_nonempty():
    for seed in range(5):
        iv = random_interval(seed, 2, 4)
        assert iv.carrier.cells


def test_random_upset_reflects():
    from staircase import is_upset

    for seed in range(5):
        assert is_upset(random_upset(seed, 2, 4).carrier)


def test_real_staircase_of_x2_xy():
    from staircase.discrete import discrete_primary_decomposition

    d = DiscreteDownset(DiscreteIdeal(2, ((2, 0), (1, 1))))
    dec = discrete_primary_decomposition(d)
    staircase = real_staircase(dec)
    target = plset(
        2,
        cell(2, hs([1, 0], 1), hs([0, 1], 0)),
        cell(2, hs([1, 0], 0)),
    )
    assert equals(staircase.carrier, target)


def test_correspondence_examples():
    for gens in [((2, 0), (1, 1)), ((1, 0), (0, 1)), ((2, 1), (1, 2)), ((1, 0),)]:
        d = DiscreteDownset(DiscreteIdeal(2, gens))
        assert correspondence_check(discrete_primary_decomposition(d)).clean


def test_verify_instance_downset(half_plane):
    report = verify_instance(half_plane, default_grid(2, 2))
    assert report.clean
    payload = report.to_json()
    assert payload["clean"] is True
    assert payload["checks"]


def test_verify_instance_discrete():
    d = DiscreteDownset(DiscreteIdeal(2, ((2, 0), (1, 1))))
    assert verify_instance(d).clean


def test_verify_instance_upset():
    u = random_upset(3, 2, 3)
    report = verify_instance(u, default_grid(2, 2))
    assert report.clean
    assert any(r.name == "top-route-agreement" for r in report.reports)


def test_interval_boundary_probe(triangle_plus_ray):
    import warnings

    from staircase.oracle import interval_boundary_probe_check

    g = default_grid(2, 2)
    for sigma in all_faces(2):
        report = interval_boundary_probe_check(triangle_plus_ray, sigma, g)
        assert report.clean, (sigma, report.mismatches[:2])


def test_verify_instance_interval(triangle_plus_ray):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = verify_instance(triangle_plus_ray, default_grid(2, 2))
    assert report.clean


def test_random_interval_boundary_probe_fuzz():
    import warnings

    from staircase import random_interval
    from staircase.oracle import interval_boundary_probe_check

    g = default_grid(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(4):
            iv = random_interval(seed + 40, 2, 3)
            for sigma in all_faces(2):
                report = interval_boundary_probe_check(iv, sigma, g)
                assert report.clean, (seed, sigma, report.mismatches[:2])
