"""Cogenerator functors: socles, strata, sigma-closure, density, tops."""

import importlib
import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import (
    Downset,
    FaceError,
    Interval,
    Upset,
    ValidationError,
    all_faces,
    associated_faces,
    attached_faces,
    canonicalize,
    cell,
    closure,
    density_report,
    difference,
    equals,
    face,
    frontier,
    full_face,
    is_dense_family,
    is_empty,
    is_subset,
    localize,
    max_along,
    plset,
    point_set,
    random_downset,
    random_interval,
    random_upset,
    sigma_closure,
    socle_table,
    top,
    top_table,
    universe,
)
from staircase.geometry import (
    Face,
    as_interval,
    line_cell,
    lower_boundary_direct,
    orthant_cell,
    project_mod,
    reflect_interval,
    reflect_upset,
    upper_boundary,
)
from staircase.oracle import boundary_degrees_direct, boundary_probe_check, default_grid
from staircase.qe import condense, minkowski, reflect
from staircase.socle import (
    boundary_degrees,
    min_along,
    socle,
    socle_stratum,
    top_direct,
    validate_socle_table,
)

from conftest import hs, rows_of


def F(a, b=1):
    return Fraction(a, b)


def facesets(faces):
    return sorted(tuple(sorted(f.coords)) for f in faces)


# --- max_along ----------------------------------------------------------------


def test_max_along_unique_maximum(closed_principal):
    got = max_along(closed_principal.carrier, face(2))
    assert equals(got, point_set([0, 0]))


def test_max_along_antichain():
    seg = plset(
        2, cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1))
    )
    assert equals(max_along(seg, face(2)), seg)


def test_max_along_stable_ray():
    s = plset(2, cell(2, hs([0, 1], 0), hs([0, -1], 0), hs([-1, 0], 0)))
    assert equals(max_along(s, face(2, [0])), s)


@pytest.mark.parametrize("seed, n", [(0, 2), (5, 2), (10003, 3)])
def test_max_along_needs_no_canonical_input(seed, n):
    # max_along runs no cleanup on its input: a canonical set with every
    # cell cut in two by a row, then listed twice, gives the same set
    s = canonicalize(random_downset(seed, n, 5).carrier)
    h = hs([1] + [-1] * (n - 1), F(1, 2))
    cut = [cell(n, *c.constraints, g) for c in s.cells for g in (h, h.negated())]
    messy = plset(n, *cut, *cut)
    for tau in all_faces(n):
        assert equals(max_along(messy, tau), max_along(s, tau)), tau


def _axis_row(n, j, sign, offset, strict=False):
    return hs([sign if i == j else 0 for i in range(n)], offset, strict)


def _lemma_case(rng, n):
    """A face ``tau``; a set ``B`` of 1-3 cells of random rows, each kept
    in ``[-3, 3]`` off ``tau`` so that it has maximal degrees; and a downset
    ``U``, a union of orthants ``x <= p`` whose corners ``p`` often cut
    through them."""
    half = lambda lo, hi: F(rng.randint(2 * lo, 2 * hi), 2)
    tau = face(n, [j for j in range(n) if rng.random() < 0.4])
    box = [_axis_row(n, j, -1, 3) for j in range(n)]
    box += [_axis_row(n, j, 1, 3) for j in range(n) if j not in tau.coords]
    b = plset(n, *(
        cell(n, *box, *(hs([rng.randint(-2, 2) for _ in range(n)], half(-3, 3), rng.random() < 0.5)
                        for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(1, 3))))
    u = plset(n, *(
        cell(n, *(_axis_row(n, j, 1, half(-1, 4), rng.random() < 0.5)
                  for j in range(n) if rng.random() < 0.8))
        for _ in range(rng.randint(1, 3))))
    return tau, b, Downset(u)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_max_along_commutes_with_removing_a_downset(seed, n):
    # the lemma socle() rests on: nothing above a point outside a downset U
    # lies in U, so max_along(B minus U) = max_along(B) minus U
    tau, b, u = _lemma_case(random.Random(seed), n)
    assert equals(max_along(difference(b, u.carrier), tau),
                  difference(max_along(b, tau), u.carrier))


# --- strata ---------------------------------------------------------------------


def test_stratum_halfplane(half_plane):
    got = socle_stratum(half_plane, face(2), face(2, [0]))
    line = plset(2, cell(2, hs([1, 1], 1), hs([-1, -1], -1)))
    assert equals(got, line)


def test_stratum_triangle(triangle_quotient):
    got = socle_stratum(triangle_quotient, face(2), face(2, [0]))
    target = plset(
        2,
        cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1)),
        cell(2, hs([1, 0], 1), hs([-1, 0], -1), hs([0, 1], 0)),
    )
    assert equals(got, target)


def test_stratum_closed_vanishes(closed_principal):
    for sigma in all_faces(2):
        if sigma.coords:
            assert is_empty(socle_stratum(closed_principal, face(2), sigma))


# --- socle tables -----------------------------------------------------------------


def test_triangle_socle_table(triangle_quotient):
    table = socle_table(triangle_quotient)
    e1 = table.entry(face(2), face(2, [0]))
    t1 = plset(
        2, cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1))
    )
    assert equals(e1.degrees, t1)
    e2 = table.entry(face(2), face(2, [1]))
    t2 = plset(
        2, cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([1, 0], 1, True), hs([-1, 0], 0))
    )
    assert equals(e2.degrees, t2)
    assert is_empty(table.entry(face(2), full_face(2)).degrees)
    assert is_empty(table.entry(face(2), face(2)).degrees)
    assert facesets(table.associated_faces()) == [()]
    validate_socle_table(table)


def test_lower_halfplane_socle(lower_half_plane):
    table = socle_table(lower_half_plane)
    e = table.entry(face(2, [0]), full_face(2))
    line = plset(2, cell(2, hs([0, 1], 0), hs([0, -1], 0)))
    assert equals(e.degrees, line)
    assert equals(e.cosets, point_set([0]))
    assert is_empty(table.entry(face(2, [0]), face(2, [0])).degrees)
    assert facesets(table.associated_faces()) == [(0,)]
    validate_socle_table(table)


def test_closed_principal_socle(closed_principal):
    table = socle_table(closed_principal)
    assert equals(table.entry(face(2), face(2)).degrees, point_set([0, 0]))
    others = [
        e for k, e in table.entries.items() if k != (face(2), face(2))
    ]
    assert all(e.is_zero() for e in others)


def test_universe_socle_full_face():
    d = Downset(universe(2))
    assert facesets(associated_faces(d)) == [(0, 1)]
    table = socle_table(d)
    entry = table.entry(full_face(2), full_face(2))
    assert equals(entry.degrees, universe(2))
    # the coset space along the full face is a point
    assert entry.cosets.dim == 0
    assert equals(entry.cosets, universe(0))


def test_halfspace_socle_in_three_variables():
    # {x+y+z < 1}: one cogenerator class on the boundary plane for each of
    # the three axis nadirs; every plane point carries three incomparable
    # nadirs at once
    d = Downset(plset(3, cell(3, hs([1, 1, 1], 1, True))))
    table = socle_table(d)
    plane = plset(3, cell(3, hs([1, 1, 1], 1), hs([-1, -1, -1], -1)))
    for axis in range(3):
        e = table.entry(face(3), face(3, [axis]))
        assert equals(e.degrees, plane)
    for pair in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        assert table.entry(face(3), face(3, pair)).is_zero()
    assert facesets(table.associated_faces()) == [()]
    validate_socle_table(table)


def test_density_self_check_with_positive_dimensional_faces(
    lower_half_plane, triangle_plus_ray
):
    # entries along positive-dimensional faces route the sigma-closure
    # through the quotient space
    table = socle_table(lower_half_plane)
    assert is_dense_family(table.cosets_family(), table)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table2 = socle_table(triangle_plus_ray)
        assert is_dense_family(table2.cosets_family(), table2)


# Genuine intervals (n=2 and n=3), reflected upsets and downsets; the two
# downset fixtures are added as cases below.
BOUNDARY_CASES = (
    [("interval", s, 2, 3) for s in range(22000, 22006)]
    + [("interval", s, 3, 3) for s in (22010, 22011, 22012)]
    + [("reflected-upset", s, 2, 4) for s in (21000, 21003)]
    + [("downset", s, 2, 4) for s in (300, 301)]
)


def _boundary_case(kind, seed, n, cells):
    if kind == "interval":
        return random_interval(seed, n, cells)
    if kind == "downset":
        return random_downset(seed, n, cells)
    return reflect_interval(as_interval(random_upset(seed, n, cells)))


def _assert_boundary_routes_agree(m):
    for sigma in all_faces(m.dim):
        assert equals(boundary_degrees(m, sigma), boundary_degrees_direct(m.carrier, sigma)), (
            sorted(sigma.coords)
        )


@pytest.mark.parametrize(
    "case",
    BOUNDARY_CASES + ["half_plane", "triangle_quotient"],
    ids=lambda case: case if isinstance(case, str) else "{}-{}-n{}".format(*case),
)
def test_boundary_degrees_match_oracle_route(case, request):
    # one formula for every module against the literal 3n-variable tail
    # condition of the oracle route
    if isinstance(case, str):
        m = request.getfixturevalue(case)
    else:
        m = _boundary_case(*case)
    _assert_boundary_routes_agree(m)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(("interval", "reflected-upset", "downset")), st.integers(0, 10_000))
def test_boundary_degrees_oracle_route_fuzz(kind, seed):
    _assert_boundary_routes_agree(_boundary_case(kind, seed + 300, 2, 3))


def test_boundary_probes_share_the_socle_tables_boundaries(monkeypatch):
    # the oracle probes and the socle table read one per-instance memo, so
    # the table builds no upper boundary of its own
    d = random_downset(7, 2, 8)
    g = default_grid(2, 2)
    for sigma in all_faces(2):
        boundary_probe_check(d, sigma, g)
    calls = []

    def counted(*args):
        calls.append(args)
        return upper_boundary(*args)

    for module in ("staircase.socle", "staircase.geometry"):
        monkeypatch.setattr(importlib.import_module(module), "upper_boundary", counted)
    socle_table(d)
    assert calls == []


def test_frontier_reads_the_socle_tables_full_face_boundary(monkeypatch):
    d = random_downset(7, 2, 8)
    socle_table(d)
    calls = []

    def counted(*args):
        calls.append(args)
        return upper_boundary(*args)

    for module in ("staircase.socle", "staircase.geometry"):
        monkeypatch.setattr(importlib.import_module(module), "upper_boundary", counted)
    front = frontier(d)
    assert calls == []
    assert not is_empty(front)
    assert equals(front, difference(closure(d.carrier), d.carrier))


def _faces_strictly_between(tau, sigma):
    """Every face ``sigma'`` with ``tau ⊆ sigma' ⊊ sigma``, smallest first."""
    extra = sorted(sigma.coords - tau.coords)
    return [face(tau.dim, tau.coords | set(combo))
            for r in range(len(extra)) for combo in itertools.combinations(extra, r)]


def _subtract_boundaries(boundary, m, sigma, faces):
    """Reference: the boundary atop ``sigma`` minus those atop ``faces``, in order."""
    result = boundary(m, sigma)
    for f in faces:
        result = difference(result, boundary(m, f))
    return result


@pytest.mark.parametrize(
    "kind, seed, n, cells",
    [("downset", 0, 2, 8), ("downset", 7, 2, 8), ("downset", 10003, 3, 5),
     ("upset", 881, 2, 5), ("interval", 22001, 2, 3),
     ("upset", 13, 3, 4), ("interval", 22010, 3, 3)],
)
def test_stratum_order_does_not_change_the_stratum(kind, seed, n, cells):
    # subtracting the faces one step down is every face between subtracted
    # largest first, row for row, and smallest first, as a set
    make = {"downset": random_downset, "upset": random_upset, "interval": random_interval}
    m = make[kind](seed, n, cells)
    for tau in all_faces(n):
        for sigma in all_faces(n):
            if tau.coords <= sigma.coords:
                got = socle_stratum(m, tau, sigma)
                between = _faces_strictly_between(tau, sigma)
                largest_first = _subtract_boundaries(boundary_degrees, m, sigma, between[::-1])
                want = condense(largest_first)
                assert rows_of(got.cells) == rows_of(want.cells), (tau, sigma)
                assert equals(got, _subtract_boundaries(boundary_degrees, m, sigma, between))


@pytest.mark.parametrize(
    "kind, seed, n, cells",
    [("downset", 7, 2, 8), ("downset", 10014, 3, 5), ("downset", 10, 4, 3), ("downset", 5, 4, 5),
     ("mirrored-upset", 21003, 2, 4), ("mirrored-upset", 13, 3, 4),
     ("interval", 22001, 2, 3), ("interval", 22010, 3, 3)],
)
def test_socle_degrees_are_the_maximal_stratum_degrees(kind, seed, n, cells):
    # socle() never builds the nadir stratum; its degrees must be the
    # tau-maximal degrees of the oracle's stratum all the same
    if kind == "mirrored-upset":
        m = reflect_upset(random_upset(seed, n, cells))
    else:
        m = {"downset": random_downset, "interval": random_interval}[kind](seed, n, cells)
    for tau in all_faces(n):
        for sigma in all_faces(n):
            if tau.coords <= sigma.coords:
                want = max_along(socle_stratum(m, tau, sigma), tau)
                assert equals(socle(m, tau, sigma).degrees, want), (tau, sigma)


def test_socle_rejects_a_nadir_without_tau_before_any_work(monkeypatch, triangle_quotient):
    def no_work(*args):
        raise AssertionError("socle did work before checking its faces")

    for name in ("boundary_degrees", "max_along", "as_interval"):
        monkeypatch.setattr(importlib.import_module("staircase.socle"), name, no_work)
    with pytest.raises(FaceError):
        socle(triangle_quotient, face(2, [1]), face(2))
    with pytest.raises(FaceError):
        socle(triangle_quotient, face(2, [0]), face(2, [1]))


@pytest.mark.parametrize("seed, n, cells", [(872, 2, 5), (883, 2, 5), (16, 3, 3), (18, 3, 3)])
def test_top_direct_one_step_down_is_every_face_between(seed, n, cells):
    # the oracle's lower-boundary strata obey the same rule
    u = random_upset(seed, n, cells)
    lower = lambda m, f: lower_boundary_direct(m, f).carrier
    for rho in all_faces(n):
        for xi in all_faces(n):
            if rho.coords <= xi.coords:
                between = _faces_strictly_between(rho, xi)
                stratum = _subtract_boundaries(lower, u, xi, between[::-1])
                degrees = min_along(canonicalize(stratum), rho)
                got = top_direct(u, rho, xi)
                assert rows_of(got.degrees.cells) == rows_of(degrees.cells), (rho, xi)
                cosets = canonicalize(project_mod(degrees, rho))
                assert rows_of(got.cosets.cells) == rows_of(cosets.cells), (rho, xi)


@pytest.mark.parametrize("n", range(6))
def test_all_faces_come_in_sort_key_order(n):
    faces = all_faces(n)
    assert faces == sorted(faces, key=Face.sort_key)


@pytest.mark.parametrize("make, seed, n, cells", [
    (random_downset, 7, 2, 8), (random_downset, 10003, 3, 5), (random_interval, 22001, 2, 3),
])
def test_socle_table_entries_come_in_face_pair_order(make, seed, n, cells):
    # nonzero_items and the JSON tables read the entries in this order unsorted
    keys = list(socle_table(make(seed, n, cells)).entries)
    assert keys == sorted(keys, key=lambda k: (k[0].sort_key(), k[1].sort_key()))


def test_triangle_plus_ray_socle(triangle_plus_ray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = socle_table(triangle_plus_ray)
    closed = table.entry(face(2), face(2))
    hypo_half_open = plset(
        2, cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0), hs([1, 0], 1, True))
    )
    assert equals(closed.degrees, hypo_half_open)
    ray_entry = table.entry(face(2, [0]), face(2, [0]))
    stable_tail = plset(
        2, cell(2, hs([0, 1], 0), hs([0, -1], 0), hs([-1, 0], -1))
    )
    assert equals(ray_entry.degrees, stable_tail)
    assert equals(ray_entry.cosets, point_set([0]))
    assert facesets(table.associated_faces()) == [(), (0,)]


def test_empty_interior_interval_warns():
    u = Upset(plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))
    d = Downset(plset(2, cell(2, hs([0, 1], 0))))
    ray = Interval(u, d)  # the closed ray {x >= 0, y = 0}
    with pytest.warns(UserWarning, match="empty interior"):
        socle_table(ray)


# --- associated faces / localization ----------------------------------------------


def test_localization_vanishing_necessary_condition():
    # if the localization along a proper face is everything, the socle along
    # that face must vanish
    for seed in range(6):
        d = random_downset(seed, 2, 4)
        table = socle_table(d)
        for tau in all_faces(2):
            if tau.is_full():
                continue
            if equals(localize(d, tau).carrier, universe(2)):
                for sigma in all_faces(2):
                    if tau.coords <= sigma.coords:
                        assert table.entry(tau, sigma).is_zero()


def test_socle_degrees_inside_boundaries():
    for seed in range(4):
        d = random_downset(seed + 50, 2, 4)
        table = socle_table(d)
        cl = closure(d.carrier)
        for (tau, sigma), e in table.entries.items():
            assert is_subset(e.degrees, cl)
            assert is_subset(e.degrees, boundary_degrees(d, sigma))
            if sigma == tau:
                # closed-socle degrees are honest members of the downset
                assert is_subset(e.degrees, d.carrier)


# --- sigma closure -------------------------------------------------------------------


def test_sigma_closure_segment():
    seg = plset(
        2,
        cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1, True)),
    )
    got = sigma_closure(seg, face(2, [0]), face(2))
    target = plset(2, cell(2, hs([1, 0], 1), hs([0, 1], 1, True), hs([1, 1], 1)))
    assert equals(got, target)
    assert got.contains((F(1), F(0)))
    assert not got.contains((F(0), F(1)))


def test_sigma_closure_degenerate_is_downward_closure():
    x = point_set([1, 1])
    got = sigma_closure(x, face(2), face(2))
    assert equals(got, plset(2, cell(2, hs([1, 0], 1), hs([0, 1], 1))))


def test_sigma_closure_empty():
    from staircase import empty

    assert is_empty(sigma_closure(empty(2), face(2, [0]), face(2)))


# --- density ---------------------------------------------------------------------------


def test_dense_family_reflexive(triangle_quotient):
    table = socle_table(triangle_quotient)
    assert is_dense_family(table.cosets_family(), table)


def test_dense_after_deleting_endpoint(triangle_quotient):
    table = socle_table(triangle_quotient)
    fam = dict(table.cosets_family())
    key = (face(2), face(2, [0]))
    fam[key] = difference(fam[key], point_set([1, 0]))
    assert is_dense_family(fam, table)


def test_not_dense_after_deleting_open_subsegment(triangle_quotient):
    table = socle_table(triangle_quotient)
    fam = dict(table.cosets_family())
    gap = plset(
        2,
        cell(
            2,
            hs([1, 1], 1),
            hs([-1, -1], -1),
            hs([-1, 0], F(-1, 4), True),
            hs([1, 0], F(1, 2), True),
        ),
    )
    for key in [(face(2), face(2, [0])), (face(2), face(2, [1]))]:
        fam[key] = difference(fam[key], gap)
    rep = density_report(fam, table)
    assert not rep.dense
    tau, sigma, w = rep.failures[0]
    assert F(1, 4) < w[0] < F(1, 2) and w[0] + w[1] == 1


def test_density_precondition_enforced(triangle_quotient):
    table = socle_table(triangle_quotient)
    fam = dict(table.cosets_family())
    fam[(face(2), face(2, [0]))] = universe(2)
    with pytest.raises(ValidationError):
        is_dense_family(fam, table)


# --- tops -------------------------------------------------------------------------------


def test_top_of_open_upper_halfplane():
    u = Upset(plset(2, cell(2, hs([-1, -1], -1, True))))
    e = top(u, face(2), face(2, [0]))
    line = plset(2, cell(2, hs([1, 1], 1), hs([-1, -1], -1)))
    assert equals(e.degrees, line)


def test_top_of_positive_orthant():
    u = Upset(plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))
    assert facesets(attached_faces(u)) == [()]
    table = top_table(u)
    assert equals(table[(face(2), face(2))].degrees, point_set([0, 0]))


def test_attached_face_of_localized_principal():
    swept = minkowski(point_set([1, 2]), line_cell(face(2, [0])))
    u = Upset(minkowski(swept, orthant_cell(2)))
    assert facesets(attached_faces(u)) == [(0,)]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_top_routes_agree(seed):
    u = random_upset(seed + 7, 2, 4)
    table = top_table(u)
    for rho in all_faces(2):
        for xi in all_faces(2):
            if not rho.coords <= xi.coords:
                continue
            a = top(u, rho, xi)
            b = top_direct(u, rho, xi)
            assert equals(a.degrees, b.degrees)
            assert equals(a.cosets, b.cosets)
            # the table and the single entry agree cell for cell, row for row
            entry = table[(rho, xi)]
            assert (entry.tau, entry.sigma) == (a.tau, a.sigma)
            assert rows_of(entry.degrees.cells) == rows_of(a.degrees.cells)
            assert rows_of(entry.cosets.cells) == rows_of(a.cosets.cells)


@pytest.mark.parametrize("seed,n,cells", [(880, 2, 5), (881, 2, 5), (893, 2, 5), (13, 3, 4)])
def test_upset_tops_match_interval_route(seed, n, cells):
    # A bare upset mirrors to a downset; the entries must be the ones the
    # interval route (the upset as an interval, reflected) gives.
    u = random_upset(seed, n, cells)
    mirrored = socle_table(reflect_interval(as_interval(u)))
    table = top_table(u)
    assert table.keys() == mirrored.entries.keys()
    for (rho, xi), e in mirrored.entries.items():
        # reflect the socle degrees, then project and canonicalize them
        want_degrees = reflect(e.degrees)
        want_cosets = canonicalize(project_mod(want_degrees, rho))
        for got in (table[(rho, xi)], top(u, rho, xi)):
            assert (got.tau, got.sigma) == (rho, xi)
            assert equals(got.degrees, want_degrees)
            assert equals(got.cosets, want_cosets)


@pytest.mark.parametrize("make, seed, n, cells", [
    (random_upset, 880, 2, 5), (random_upset, 893, 2, 5), (random_upset, 13, 3, 4),
    (random_interval, 22001, 2, 3), (random_interval, 22002, 2, 3),
])
def test_attached_faces_are_the_faces_of_nonzero_tops(make, seed, n, cells):
    u = make(seed, n, cells)
    table = top_table(u)
    want = frozenset(rho for (rho, _), e in table.items() if not e.is_zero())
    assert want
    assert attached_faces(u) == want
