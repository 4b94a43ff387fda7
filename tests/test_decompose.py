"""Canonical decompositions, coprimarity, minimality, fringe presentations."""

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
    cell,
    coprincipal,
    equals,
    face,
    fringe_presentation,
    full_face,
    irreducible_family,
    is_coprimary,
    is_empty,
    plset,
    point_set,
    primary_decomposition,
    random_downset,
    random_upset,
    reconstruct,
    socle_table,
    universe,
    verify_minimality,
)
from staircase.decompose import IrreducibleFamily
from staircase.geometry import as_interval
from staircase.qe import difference

from conftest import hs


def F(a, b=1):
    return Fraction(a, b)


# --- coprincipal downsets ---------------------------------------------------


def test_coprincipal_closed():
    got = coprincipal(point_set([0, 0]), face(2), face(2))
    assert equals(got.carrier, plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))


def test_coprincipal_open_along_x():
    got = coprincipal(point_set([0, 0]), face(2), face(2, [0]))
    assert equals(got.carrier, plset(2, cell(2, hs([1, 0], 0, True), hs([0, 1], 0))))


def test_coprincipal_with_lineality():
    ray = plset(2, cell(2, hs([0, 1], 0), hs([0, -1], 0), hs([-1, 0], -1)))
    got = coprincipal(ray, face(2, [0]), face(2, [0]))
    assert equals(got.carrier, plset(2, cell(2, hs([0, 1], 0))))


def test_coprincipal_face_mismatch():
    with pytest.raises(FaceError):
        coprincipal(point_set([0, 0]), face(2, [0]), face(2))


# --- primary decomposition -----------------------------------------------------


def test_triangle_single_component(triangle_quotient):
    pd = primary_decomposition(triangle_quotient)
    assert set(pd.components) == {face(2)}
    comp = pd.components[face(2)]
    assert equals(comp.interval.carrier, triangle_quotient.carrier)
    assert verify_minimality(pd).all_equal


def test_halfplane_decomposition(half_plane):
    pd = primary_decomposition(half_plane)
    assert set(pd.components) == {face(2)}
    assert verify_minimality(pd).all_equal
    fam = irreducible_family(half_plane)
    keys = sorted((tuple(sorted(t.coords)), tuple(sorted(s.coords))) for t, s, _ in fam.entries)
    assert keys == [((), (0,)), ((), (1,))]
    assert equals(reconstruct(fam, half_plane), half_plane.carrier)


def test_closed_principal_is_its_own_component(closed_principal):
    pd = primary_decomposition(closed_principal)
    assert set(pd.components) == {face(2)}
    assert equals(
        pd.components[face(2)].interval.carrier, closed_principal.carrier
    )
    fam = irreducible_family(closed_principal)
    assert len(fam.entries) == 1
    assert equals(fam.entries[0][2], point_set([0, 0]))


def test_triangle_plus_ray_components(triangle_plus_ray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pd = primary_decomposition(triangle_plus_ray)
    assert set(pd.components) == {face(2), face(2, [0])}
    c0 = pd.components[face(2)].interval.carrier
    t0 = plset(
        2,
        cell(2, hs([-1, 0], 0), hs([0, -1], 0), hs([1, 1], 1), hs([1, 0], 1, True)),
    )
    assert equals(c0, t0)
    c1 = pd.components[face(2, [0])].interval.carrier
    t1 = plset(2, cell(2, hs([-1, 0], 0), hs([0, 1], 0), hs([0, -1], 0)))
    assert equals(c1, t1)


def test_triangle_plus_ray_minimality_discrepancy(triangle_plus_ray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pd = primary_decomposition(triangle_plus_ray)
        report = verify_minimality(pd)
    assert not report.all_equal
    bad = report.discrepancies()
    assert len(bad) == 1
    entry = bad[0]
    assert (sorted(entry.tau.coords), sorted(entry.sigma.coords)) == ([], [0])
    assert equals(entry.extra, point_set([1, 0]))
    assert is_empty(entry.missing)
    assert is_empty(entry.duplicated)


def test_minimality_detects_duplicated_cosets(half_plane, triangle_quotient):
    # two overlapping components double-claim socle cosets: the direct sum
    # then has duplicated entries and the diagnostic must say so
    from staircase.decompose import PrimaryComponent, PrimaryDecomposition
    from staircase.geometry import as_interval
    from staircase.qe import minkowski
    from staircase.geometry import orthant_cell

    pd = primary_decomposition(half_plane)
    comp = pd.components[face(2)]
    doubled = PrimaryDecomposition(
        pd.base,
        {face(2): comp, face(2, [0]): PrimaryComponent(face(2, [0]), comp.interval, comp.hull)},
        pd.table,
    )
    report = verify_minimality(doubled)
    assert not report.all_equal
    assert any(not is_empty(e.duplicated) for e in report.discrepancies())


# --- coprimarity -----------------------------------------------------------------


def test_is_coprimary(triangle_quotient, triangle_plus_ray):
    assert is_coprimary(triangle_quotient, face(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not is_coprimary(triangle_plus_ray, face(2))
    assert is_coprimary(Downset(universe(2)), full_face(2))


def test_components_are_coprimary(triangle_plus_ray, half_plane):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for base in (triangle_plus_ray, half_plane):
            pd = primary_decomposition(base)
            for tau, comp in pd.components.items():
                assert is_coprimary(comp.interval, tau)


# --- irreducible family and density interplay ---------------------------------------


def test_subfamily_reconstruction(triangle_quotient):
    fam = irreducible_family(triangle_quotient)
    # deleting a sigma-closure-recoverable single point keeps the union exact
    entries = []
    for tau, sigma, a in fam.entries:
        if sorted(sigma.coords) == [0]:
            a = difference(a, point_set([1, 0]))
        entries.append((tau, sigma, a))
    dense_fam = IrreducibleFamily(2, tuple(entries))
    assert equals(reconstruct(dense_fam, triangle_quotient), triangle_quotient.carrier)
    # deleting an open subsegment from both strata breaks the union
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
    entries = [(t, s, difference(a, gap)) for t, s, a in fam.entries]
    broken = IrreducibleFamily(2, tuple(entries))
    got = reconstruct(broken, triangle_quotient)
    assert not equals(got, triangle_quotient.carrier)


# --- fuzz: exact reconstruction -------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000))
def test_fuzz_decomposition_exact(seed):
    d = random_downset(seed, 2, 5)
    pd = primary_decomposition(d)  # raises if the union check fails
    for tau, comp in pd.components.items():
        assert is_coprimary(comp.interval, tau)
    assert set(pd.components) == set(pd.table.associated_faces())
    fam = irreducible_family(d, table=pd.table)
    assert equals(reconstruct(fam, d), d.carrier)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([2, 2, 3]))
def test_fuzz_interval_decomposition_exact(seed, n):
    from staircase import random_interval
    from staircase.socle import socle_table, validate_socle_table

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        iv = random_interval(seed, n, 3 if n == 2 else 2)
        validate_socle_table(socle_table(iv))
        pd = primary_decomposition(iv)
        fam = irreducible_family(iv, table=pd.table)
        assert equals(reconstruct(fam, iv), iv.carrier)
        for tau, comp in pd.components.items():
            assert is_coprimary(comp.interval, tau)


# --- fringe presentations ---------------------------------------------------------------


def test_fringe_of_downset(half_plane):
    fp = fringe_presentation(half_plane)
    assert equals(fp.upset.carrier, universe(2))
    assert len(fp.hull) == 1
    assert fp.validation
    assert equals(fp.hull[0].carrier, half_plane.carrier)


def test_fringe_of_closed_box():
    u = Upset(plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))
    d = Downset(plset(2, cell(2, hs([1, 0], 1), hs([0, 1], 1))))
    box = Interval(u, d)
    fp = fringe_presentation(box)
    assert len(fp.hull) == 1
    assert fp.validation
    assert equals(fp.hull[0].carrier, d.carrier)


def test_fringe_of_triangle_plus_ray(triangle_plus_ray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fp = fringe_presentation(triangle_plus_ray)
    assert len(fp.hull) == 2
    assert fp.validation
    assert fp.scalars == (1, 1)
    hull0 = plset(2, cell(2, hs([1, 0], 1, True), hs([0, 1], 1), hs([1, 1], 1)))
    assert equals(fp.hull[0].carrier, hull0)
    assert equals(fp.hull[1].carrier, plset(2, cell(2, hs([0, 1], 0))))


@pytest.mark.parametrize("seed,n,cells", [(21000, 2, 4), (21003, 2, 4), (13, 3, 4)])
def test_bare_upset_matches_interval_route(seed, n, cells):
    # A bare Upset (as the CLI loads one) and the same upset viewed as an
    # interval give the same socle table, decomposition and fringe.
    u = random_upset(seed, n, cells)
    iv = as_interval(u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, want = socle_table(u), socle_table(iv)
        assert got.entries.keys() == want.entries.keys()
        for key, e in want.entries.items():
            assert equals(got.entries[key].degrees, e.degrees)
            assert equals(got.entries[key].cosets, e.cosets)
        assert equals(reconstruct(irreducible_family(u, table=got), u), u.carrier)
        fp, fq = fringe_presentation(u), fringe_presentation(iv)
    assert fp.validation and fq.validation
    assert len(fp.hull) == len(fq.hull)
    for a, b in zip(fp.hull, fq.hull):
        assert equals(a.carrier, b.carrier)
