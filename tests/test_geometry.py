"""Order geometry: faces, shapes, boundaries, frontiers, localization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import (
    Downset,
    Interval,
    Upset,
    ValidationError,
    all_faces,
    cell,
    closure,
    cone_of_shape,
    directional_limit_member,
    equals,
    face,
    face_interior,
    frontier,
    full_face,
    intersect,
    is_downset,
    is_empty,
    is_subset,
    is_upset,
    localize,
    lower_boundary,
    minkowski,
    open_star,
    plset,
    point_set,
    project_mod,
    quotient_restrict,
    random_downset,
    random_interval,
    reflect,
    shape_at,
    universe,
    upper_boundary,
    zero_face,
)
from staircase.geometry import (
    Shape,
    as_interval,
    indicator_vector,
    lower_boundary_direct,
    orthant_cell,
    reflect_downset,
    reflect_interval,
)
from staircase.oracle import boundary_degrees_direct
from staircase.qe import clear_caches

from conftest import hs, rational_grid


def F(a, b=1):
    return Fraction(a, b)


def faces_as_sets(faces):
    return sorted(tuple(sorted(f.coords)) for f in faces)


# --- faces and shapes --------------------------------------------------------


def test_face_interior_cells():
    origin = face_interior(face(2))
    assert equals(plset(2, origin), point_set([0, 0]))
    xaxis = face_interior(face(2, [0]))
    assert equals(
        plset(2, xaxis),
        plset(2, cell(2, hs([-1, 0], 0, True), hs([0, 1], 0), hs([0, -1], 0))),
    )
    quad = face_interior(full_face(2))
    assert equals(plset(2, quad), plset(2, cell(2, hs([-1, 0], 0, True), hs([0, -1], 0, True))))


def test_face_cells_exact_constraints():
    # Constraint order and strictness feed Fourier-Motzkin as they are, so
    # the face cells are pinned syntactically, not only as sets.
    from staircase.geometry import cone_cell, line_cell, upset_cone_cell

    def axis(i, sign, strict=False):
        return hs([sign if k == i else 0 for k in range(3)], 0, strict)

    f = face(3, [0, 2])
    eq1 = (axis(1, 1), axis(1, -1))
    assert face_interior(f).constraints == (axis(0, -1, True), *eq1, axis(2, -1, True))
    assert upset_cone_cell(f).constraints == (
        axis(0, -1, True), axis(1, -1), axis(2, -1, True)
    )
    assert line_cell(f).constraints == eq1
    assert cone_cell(f).constraints == (axis(0, -1), *eq1, axis(2, -1))
    assert orthant_cell(3).constraints == tuple(axis(i, -1) for i in range(3))
    assert orthant_cell(3, negative=True).constraints == tuple(axis(i, 1) for i in range(3))


def test_open_star():
    star = open_star(face(2, [0]))
    assert faces_as_sets(star.faces) == [(0,), (0, 1)]
    assert faces_as_sets(star.minimal_faces()) == [(0,)]


def test_cone_of_shape_full_lattice():
    nabla = Shape(2, frozenset(all_faces(2)))
    assert equals(cone_of_shape(nabla), plset(2, orthant_cell(2)))


def test_cone_of_shape_open_star_identity():
    for n in (1, 2, 3):
        for sigma in all_faces(n):
            lhs = cone_of_shape(open_star(sigma))
            rhs = minkowski(plset(n, face_interior(sigma)), orthant_cell(n))
            assert equals(lhs, rhs)


def test_shape_upward_closure_enforced():
    with pytest.raises(ValidationError):
        Shape(2, frozenset({face(2, [0])}))  # missing the full face


# --- downset/upset validation -------------------------------------------------


def test_is_downset_examples(half_plane):
    assert is_downset(half_plane.carrier)
    line = plset(2, cell(2, hs([1, 1], 1), hs([-1, -1], -1)))
    assert not is_downset(line)
    tri = plset(2, cell(2, hs([1, 0], 1, True), hs([0, 1], 1, True), hs([1, 1], 1, True)))
    assert is_downset(tri)


def test_downset_constructor_rejects():
    with pytest.raises(ValidationError, match="^not a downset: witness point "):
        Downset(plset(2, cell(2, hs([-1, 0], 0))))  # an upset, not a downset
    with pytest.raises(ValidationError, match="^not an upset: witness point "):
        Upset(plset(2, cell(2, hs([1, 0], 0))))


def test_reflect_downset_is_upset(half_plane):
    assert is_upset(reflect(half_plane.carrier))


def _random_rows(n):
    """Rows with normals in {-1, 0, 1}^n and offsets in halves."""
    normal = st.tuples(*[st.integers(-1, 1)] * n).filter(any)
    return st.builds(lambda nr, off, strict: hs(nr, F(off, 2), strict),
                     normal, st.integers(-3, 3), st.booleans())


def _random_sets(n):
    """1-3 cells of 1-3 rows: some downsets or upsets, most neither."""
    cells = st.lists(st.lists(_random_rows(n), min_size=1, max_size=3), min_size=1, max_size=3)
    return cells.map(lambda cs: plset(n, *(cell(n, *rows) for rows in cs)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(_random_sets))
def test_order_closure_tests_match_two_inclusion_definition(s):
    # is_downset and is_upset test one inclusion; the reference is the
    # extensional equality s = s -/+ R^n_+, both inclusions included.
    for test, negative in ((is_downset, True), (is_upset, False)):
        closed = minkowski(s, orthant_cell(s.dim, negative=negative))
        assert test(s) == equals(s, closed)
        assert test(closed)


# --- shape_at ------------------------------------------------------------------


def test_shape_at_halfplane_boundary(half_plane):
    sh = shape_at(half_plane, [F(1, 2), F(1, 2)])
    assert faces_as_sets(sh.faces) == [(0,), (0, 1), (1,)]
    assert faces_as_sets(sh.minimal_faces()) == [(0,), (1,)]


def test_shape_at_member_point(closed_principal):
    sh = shape_at(closed_principal, [0, 0])
    assert faces_as_sets(sh.faces) == [(), (0,), (0, 1), (1,)]


def test_shape_at_triangle_corner(triangle_quotient):
    sh = shape_at(triangle_quotient, [1, 0])
    assert faces_as_sets(sh.minimal_faces()) == [(0,)]


def test_shape_at_separated_point(half_plane):
    sh = shape_at(half_plane, [5, 5])
    assert sh.faces == frozenset()


# --- upper boundary -------------------------------------------------------------


def test_upper_boundary_halfplane(half_plane):
    got = upper_boundary(half_plane, face(2, [0]))
    assert equals(got.carrier, plset(2, cell(2, hs([1, 1], 1))))


def test_upper_boundary_closed_is_identity(closed_principal):
    for sigma in all_faces(2):
        got = upper_boundary(closed_principal, sigma)
        assert equals(got.carrier, closed_principal.carrier)


def test_upper_boundary_trivial_face(half_plane):
    got = upper_boundary(half_plane, zero_face(2))
    assert equals(got.carrier, half_plane.carrier)


def test_upper_boundary_triangle(triangle_quotient):
    got = upper_boundary(triangle_quotient, face(2, [0]))
    target = plset(2, cell(2, hs([1, 0], 1), hs([0, 1], 1, True), hs([1, 1], 1)))
    assert equals(got.carrier, target)


def test_upper_boundary_strictifies_rows_that_rise():
    # The open quadrant {x<0, y<0} as two cells; the row y <= x of the first
    # rises along the tail (x, y) - eps*(1, 0), so it must turn strict, or
    # the origin would enter the boundary through the first cell.
    d = Downset(plset(2, cell(2, hs([1, 0], 0, True), hs([-1, 1], 0)),
                      cell(2, hs([0, 1], 0, True), hs([1, -1], 0, True))))
    assert len(d.carrier.cells) == 2
    got = upper_boundary(d, face(2, [0])).carrier
    assert equals(got, plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0, True))))
    assert not got.contains([0, 0])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_random_sets(n), _random_rows(n))))
def test_upper_boundary_is_the_tail_condition(set_and_row):
    # On every face the boundary is {a : a - eps*1_sigma in d for all small
    # eps > 0}: checked against the 3n-variable oracle for n <= 2, and point
    # by point against directional_limit_member on a grid for every n.  The
    # cells of a swept set are downsets, so no row rises along a tail; the
    # same set cut in two by a row h has cells whose rows may.
    s, h = set_and_row
    n = s.dim
    swept = minkowski(s, orthant_cell(n, negative=True))
    cut = plset(n, *(cell(n, *c.constraints, g) for c in swept.cells for g in (h, h.negated())))
    grid = rational_grid([-2] * n, [2] * n, F(1, 4) if n <= 2 else F(1, 2))
    for d in (Downset(swept), Downset(cut)):
        for sigma in all_faces(n):
            bd = upper_boundary(d, sigma).carrier
            if n <= 2:
                assert equals(bd, boundary_degrees_direct(d.carrier, sigma))
            if sigma.coords:
                tail = tuple(-x for x in indicator_vector(sigma))
                for p in grid:
                    assert bd.contains(p) == directional_limit_member(d.carrier, p, tail)


def _boundary_laws(d):
    n = d.dim
    boundaries = {s: upper_boundary(d, s) for s in all_faces(n)}
    cl = closure(d.carrier)
    for s, bd in boundaries.items():
        assert is_subset(d.carrier, bd.carrier)
        assert is_subset(bd.carrier, cl)
        assert is_downset(bd.carrier)
        again = upper_boundary(bd, s)
        assert equals(again.carrier, bd.carrier)
    for s1 in all_faces(n):
        for s2 in all_faces(n):
            if s1.coords <= s2.coords:
                assert is_subset(boundaries[s1].carrier, boundaries[s2].carrier)


def test_boundary_laws_fixed(half_plane, triangle_quotient, closed_principal):
    for d in (half_plane, triangle_quotient, closed_principal):
        _boundary_laws(d)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_boundary_laws_fuzz(seed):
    _boundary_laws(random_downset(seed, 2, 4))


def test_boundary_agrees_with_shape(triangle_quotient):
    bd = upper_boundary(triangle_quotient, face(2, [0]))
    for p in rational_grid([-1, -1], [2, 2], F(1, 3)):
        assert bd.carrier.contains(p) == (
            face(2, [0]) in shape_at(triangle_quotient, p)
        )


# --- frontier --------------------------------------------------------------------


def test_frontier_halfplane(half_plane):
    line = plset(2, cell(2, hs([1, 1], 1), hs([-1, -1], -1)))
    assert equals(frontier(half_plane), line)


def test_frontier_closed_empty(closed_principal):
    assert is_empty(frontier(closed_principal))


def test_frontier_open_quadrant():
    q = Downset(plset(2, cell(2, hs([1, 0], 0, True), hs([0, 1], 0, True))))
    rays = plset(
        2,
        cell(2, hs([1, 0], 0), hs([-1, 0], 0), hs([0, 1], 0)),
        cell(2, hs([0, 1], 0), hs([0, -1], 0), hs([1, 0], 0)),
    )
    assert equals(frontier(q), rays)


# --- localization and quotient-restriction ------------------------------------------


def test_localize_unstable_halfplane_vanishes(half_plane):
    assert is_empty(localize(half_plane, face(2, [0])).carrier)


def test_localize_invariant_downset(lower_half_plane):
    got = localize(lower_half_plane, face(2, [0]))
    assert equals(got.carrier, lower_half_plane.carrier)


def test_localize_trivial_face(half_plane):
    assert equals(localize(half_plane, face(2)).carrier, half_plane.carrier)


def test_quotient_restrict(lower_half_plane):
    got = quotient_restrict(lower_half_plane.carrier, face(2, [0]))
    assert equals(got, plset(1, cell(1, hs([1], 0, True))))


def test_quotient_restrict_requires_invariance(half_plane):
    with pytest.raises(ValidationError):
        quotient_restrict(half_plane.carrier, face(2, [0]))


def test_project_mod_plain_image(half_plane):
    got = project_mod(half_plane.carrier, face(2, [0]))
    assert equals(got, universe(1))


# --- lower boundary -------------------------------------------------------------------


def test_lower_boundary_open_halfplane():
    u = Upset(plset(2, cell(2, hs([-1, -1], -1, True))))
    target = plset(2, cell(2, hs([-1, -1], -1)))
    assert equals(lower_boundary(u, face(2, [0])).carrier, target)
    assert equals(lower_boundary_direct(u, face(2, [0])).carrier, target)


def test_lower_boundary_closed_and_trivial():
    u = Upset(plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))
    assert equals(lower_boundary(u, face(2, [0, 1])).carrier, u.carrier)
    v = Upset(plset(2, cell(2, hs([-1, -1], -1, True))))
    assert equals(lower_boundary(v, zero_face(2)).carrier, v.carrier)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_lower_boundary_routes_agree(seed):
    from staircase import random_upset

    u = random_upset(seed, 2, 4)
    for xi in all_faces(2):
        a = lower_boundary(u, xi)
        b = lower_boundary_direct(u, xi)
        assert equals(a.carrier, b.carrier)


# --- intervals ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(22_000, 22_010))
def test_interval_carrier_is_the_meet(seed, n):
    # An interval derives its carrier from its two parts; the reflected
    # interval's carrier is the reflection of the carrier.
    i = random_interval(seed, n, 3)
    assert equals(Interval(i.upset, i.downset).carrier,
                  intersect(i.upset.carrier, i.downset.carrier))
    assert equals(reflect_interval(i).carrier, reflect(i.carrier))


@pytest.mark.parametrize("seed, n, budget", [(0, 2, 8), (1, 2, 8), (10_000, 3, 5)])
def test_as_interval_keeps_the_carrier(seed, n, budget):
    # with the universe as the other part, a part's canonical carrier is
    # the interval's carrier as it is, not rebuilt from a cold table
    d = random_downset(seed, n, budget)
    u = reflect_downset(d)
    clear_caches()
    assert as_interval(d).carrier is d.carrier
    assert as_interval(u).carrier is u.carrier
    assert equals(Interval(u, d).carrier, intersect(u.carrier, d.carrier))
