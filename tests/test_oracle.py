"""Oracle machinery: grids, probes, random generators, cross-checks."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    difference,
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
    assert len(list(g.scaled_points())) == 9


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


def test_grid_points_raise_under_a_small_cell_limit():
    from staircase import CellLimitExceeded
    from staircase.qe import get_cell_limit, set_cell_limit

    from conftest import rational_grid

    grid = GridSpec((-1, 0), (1, Fraction(3, 2)), Fraction(2, 3), Fraction(1, 8))
    points = [p for _, p in grid.scaled_points()]
    assert points == rational_grid((-1, 0), (1, Fraction(3, 2)), Fraction(2, 3))
    previous = get_cell_limit()
    set_cell_limit(11)  # the grid has 4 x 3 points
    try:
        with pytest.raises(CellLimitExceeded, match="grid"):
            next(grid.scaled_points())
    finally:
        set_cell_limit(previous)


def test_grid_scaled_points_are_the_points_times_the_denominator():
    from conftest import rational_grid

    grid = GridSpec((F(-5, 7), F(0)), (F(1), F(1)), F(1, 3), F(1, 10))
    d = grid.denominator
    assert d == 840  # lcm of 7, 3 and the 40 of probe/4
    assert grid.depths() == (84, 42, 21)
    pairs = list(grid.scaled_points())
    assert [p for _, p in pairs] == rational_grid(grid.lo, grid.hi, grid.step)
    assert all(P == tuple(x * d for x in p) for P, p in pairs)
    assert all(type(x) is int for P, _ in pairs for x in P)


def _corner_grid():
    # the corner -5/3 has a denominator that neither the step 1/2 nor the
    # probe 1/8 has
    return GridSpec((F(-5, 3), F(-5, 3)), (F(4, 3), F(4, 3)), F(1, 2), F(1, 8))


def _flip_at(monkeypatch, name, w):
    """Make ``oracle.<name>`` answer wrongly at the grid point ``w`` only."""
    oracle = importlib.import_module("staircase.oracle")
    real = getattr(oracle, name)

    def flipped(*args):
        s = real(*args)
        return difference(s, point_set(w)) if s.contains(w) else union(s, point_set(w))

    monkeypatch.setattr(oracle, name, flipped)


@pytest.mark.parametrize("check, target, w, want", [
    ("boundary", "boundary_degrees", (F(1, 3), F(1, 3)), True),
    ("interval", "boundary_degrees", (F(-1, 6), F(5, 6)), False),
    ("closure", "sigma_closure", (F(1, 3), F(-5, 3)), True),
])
def test_probe_checks_record_exactly_a_planted_mismatch(
    monkeypatch, triangle_quotient, triangle_plus_ray, check, target, w, want
):
    from staircase.oracle import interval_boundary_probe_check

    sigma, grid = face(2, [0]), _corner_grid()
    run = {
        "boundary": lambda: boundary_probe_check(triangle_quotient, sigma, grid),
        "interval": lambda: interval_boundary_probe_check(triangle_plus_ray, sigma, grid),
        "closure": lambda: sigma_closure_probe_check(
            socle_table(triangle_quotient).entry(face(2), sigma).cosets, sigma, face(2), grid
        ),
    }[check]
    clean = run()
    assert clean.clean and clean.checked == 49
    _flip_at(monkeypatch, target, w)
    dirty = run()
    assert (dirty.checked, dirty.inconclusive) == (clean.checked, clean.inconclusive)
    assert dirty.mismatches == [
        {"point": [str(x) for x in w], "expected": want, "got": not want}
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1)).map(lambda c: face(n, c)),
    )),
    st.integers(1, 12),
    st.integers(1, 6),
    st.integers(0, 10 ** 6),
)
def test_integer_rows_equal_the_halfspace_built_ones(case, d, depth, seed):
    from staircase import HalfSpace
    from staircase.geometry import Cell, upset_cone_cell
    from staircase.oracle import _tail_cell, _translated_cell
    from staircase.rationals import dot

    a, sigma = case
    n = sigma.dim
    p = tuple(F(x, d) for x in a)
    cons = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        on_face = i in sigma.coords
        cons.append(HalfSpace(e, p[i], on_face))
        cons.append(HalfSpace(tuple(-c for c in e), (F(depth, d) if on_face else 0) - p[i], False))
    assert _tail_cell(tuple(a), d, sigma, depth).constraints == Cell(n, tuple(cons)).constraints

    rng = random.Random(seed)
    rows = [hs([rng.randint(-3, 3) for _ in range(n)], F(rng.randint(-9, 9), rng.randint(1, 4)),
               rng.random() < 0.5) for _ in range(3)]
    for c in (upset_cone_cell(sigma), Cell(n, tuple(rows))):
        shifted = Cell(n, tuple(HalfSpace(h.normal, h.offset + dot(h.normal, p), h.strict)
                                for h in c.constraints))
        assert _translated_cell(c, tuple(a), d).constraints == shifted.constraints
