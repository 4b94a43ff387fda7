"""Unit and property tests for the exact linear set engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import (
    Cell,
    DimensionMismatch,
    PLSet,
    StaircaseError,
    canonicalize,
    cell,
    closure,
    complement,
    difference,
    directional_limit_member,
    eliminate,
    empty,
    equals,
    exists,
    halfspace,
    intersect,
    is_empty,
    is_subset,
    minkowski,
    plset,
    point_set,
    reflect,
    symmetric_difference,
    union,
    universe,
    witness,
)
from staircase.qe import (
    _normalize_constraints,
    condense,
    difference_witness,
    is_empty_cell,
    witness_cell,
)

from conftest import hs, rational_grid


def F(a, b=1):
    return Fraction(a, b)


# --- emptiness -------------------------------------------------------------


def test_empty_contradictory_strict_pair():
    c = cell(1, hs([1], 0, True), hs([-1], 0, True))  # x < 0 and x > 0
    assert is_empty_cell(c)


def test_whole_plane_not_empty():
    assert not is_empty_cell(cell(2))


def test_line_with_open_halfplane_witness():
    c = cell(2, hs([1, 0], 0), hs([-1, 0], 0), hs([0, 1], 0, True))
    assert not is_empty_cell(c)
    w = witness_cell(c)
    assert c.contains(w)
    assert w[0] == 0 and w[1] < 0


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        cell(2, hs([1], 0))
    with pytest.raises(DimensionMismatch):
        intersect(universe(1), universe(2))
    with pytest.raises(DimensionMismatch):
        eliminate(universe(2), {5})


def test_cell_limit_guard():
    from staircase import CellLimitExceeded
    from staircase.qe import get_cell_limit, set_cell_limit

    big = plset(
        2, *[cell(2, hs([1, 1], k), hs([1, -1], k), hs([-1, 1], k)) for k in range(6)]
    )
    previous = get_cell_limit()
    set_cell_limit(4)
    try:
        with pytest.raises(CellLimitExceeded):
            complement(big)
    finally:
        set_cell_limit(previous)


# --- elimination -----------------------------------------------------------


def test_eliminate_shadow():
    s = plset(2, cell(2, hs([1, 1], 1), hs([0, -1], 0)))  # x+y<=1, y>=0
    shadow = eliminate(s, {1})
    assert equals(shadow, plset(1, cell(1, hs([1], 1))))
    # brute-force shadow oracle: exists a rational y iff x <= 1
    for (x,) in rational_grid([-3], [3], F(1, 4)):
        expect = any(
            s.contains((x, y)) for (y,) in rational_grid([-4], [4], F(1, 8))
        )
        assert shadow.contains((x,)) == expect


def test_eliminate_empty_and_unconstrained():
    assert is_empty(eliminate(empty(2), {0}))
    s = plset(2, cell(2, hs([1, 0], 0, True)))
    assert equals(eliminate(s, {1}), plset(1, cell(1, hs([1], 0, True))))


def test_eliminate_strictness_combination():
    # y < x and y >= 0 project to x > 0 (strict combined with non-strict)
    s = plset(2, cell(2, hs([-1, 1], 0, True), hs([0, -1], 0)))
    assert equals(eliminate(s, {1}), plset(1, cell(1, hs([-1], 0, True))))


# --- boolean algebra --------------------------------------------------------


def test_complement_examples():
    assert equals(
        complement(plset(1, cell(1, hs([1], 0)))), plset(1, cell(1, hs([-1], 0, True)))
    )


def test_intersect_interval():
    got = intersect(
        plset(1, cell(1, hs([1], 1, True))), plset(1, cell(1, hs([-1], 0, True)))
    )
    assert equals(got, plset(1, cell(1, hs([1], 1, True), hs([-1], 0, True))))


def test_subset_strict_vs_closed():
    assert is_subset(plset(1, cell(1, hs([1], 0, True))), plset(1, cell(1, hs([1], 0))))
    assert not is_subset(
        plset(1, cell(1, hs([1], 0))), plset(1, cell(1, hs([1], 0, True)))
    )


# --- closure ---------------------------------------------------------------


def test_closure_halfplane():
    got = closure(plset(2, cell(2, hs([1, 1], 1, True))))
    assert equals(got, plset(2, cell(2, hs([1, 1], 1))))


def test_closure_drops_empty_cells():
    got = closure(plset(1, cell(1, hs([1], 0, True), hs([-1], 0, True))))
    assert is_empty(got)


def test_closure_of_segment_with_open_part():
    s = plset(2, cell(2, hs([1, 0], 0), hs([-1, 0], 0), hs([0, 1], 0, True)))
    got = closure(s)
    target = plset(2, cell(2, hs([1, 0], 0), hs([-1, 0], 0), hs([0, 1], 0)))
    assert equals(got, target)
    # grid oracle: closure membership == "every box around the point meets s"
    for p in rational_grid([-2, -2], [2, 2], F(1, 2)):
        probes = [F(1, 8), F(1, 16)]
        near = any(
            s.contains((p[0] + dx * e, p[1] + dy * e))
            for e in probes
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        )
        assert got.contains(p) == near


# --- directional limit membership -------------------------------------------


def test_directional_limit_examples():
    s = plset(2, cell(2, hs([1, 1], 1, True)))
    assert directional_limit_member(s, [1, 0], [-1, 0])
    assert directional_limit_member(s, [1, 0], [0, -1])
    assert not directional_limit_member(plset(2, cell(2, hs([1, 0], 0))), [0, 0], [1, 0])
    # interior point: any direction works
    assert directional_limit_member(s, [0, 0], [1, 1])
    with pytest.raises(StaircaseError):
        directional_limit_member(s, [0, 0], [0, 0])


def test_directional_limit_implies_closure_membership():
    s = plset(2, cell(2, hs([1, 1], 1, True)), cell(2, hs([1, 0], -1)))
    cl = closure(s)
    for p in rational_grid([-2, -2], [2, 2], 1):
        for v in [(1, 0), (0, -1), (-1, -1), (2, 1)]:
            if directional_limit_member(s, p, v):
                assert cl.contains(p)


# --- minkowski ---------------------------------------------------------------


def test_minkowski_principal():
    got = minkowski(point_set([0, 0]), cell(2, hs([1, 0], 0), hs([0, 1], 0)))
    assert equals(got, plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))


def test_minkowski_segment_open_quadrant():
    seg = plset(
        2,
        cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1)),
    )
    quad = cell(2, hs([1, 0], 0, True), hs([0, 1], 0))
    got = minkowski(seg, quad)
    target = plset(2, cell(2, hs([1, 0], 1, True), hs([0, 1], 1, True), hs([1, 1], 1, True)))
    assert equals(got, target)
    # grid cross-check
    for p in rational_grid([-2, -2], [2, 2], F(1, 2)):
        assert got.contains(p) == (p[0] < 1 and p[1] < 1 and p[0] + p[1] < 1)


def test_minkowski_empty():
    assert is_empty(minkowski(empty(2), cell(2)))


def test_minkowski_with_plset_summand():
    pt = point_set([0, 0])
    two_rays = plset(
        2,
        cell(2, hs([-1, 0], 0), hs([1, 0], 0), hs([0, 1], 0)),  # x = 0, y <= 0
        cell(2, hs([0, -1], 0), hs([0, 1], 0), hs([1, 0], 0)),  # y = 0, x <= 0
    )
    got = minkowski(pt, two_rays)
    assert equals(got, two_rays)


# --- reflect ------------------------------------------------------------------


def test_reflect_quadrant():
    got = reflect(plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))
    assert equals(got, plset(2, cell(2, hs([-1, 0], 0), hs([0, -1], 0))))


# --- property tests -----------------------------------------------------------

_rat = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


def _halfspaces(n):
    normals = st.tuples(*[st.integers(-2, 2) for _ in range(n)]).filter(
        lambda t: any(t)
    )
    return st.builds(
        lambda nr, off, strict: halfspace(nr, off, strict),
        normals,
        _rat,
        st.booleans(),
    )


def _plsets(n, max_cells=3, max_cons=2):
    cells = st.lists(
        st.builds(lambda cons: Cell(n, tuple(cons)), st.lists(_halfspaces(n), max_size=max_cons)),
        max_size=max_cells,
    )
    return st.builds(lambda cs: PLSet(n, tuple(cs)), cells)


@settings(max_examples=50, deadline=None)
@given(_plsets(2), _plsets(2))
def test_de_morgan(s, t):
    lhs = complement(union(s, t))
    rhs = intersect(complement(s), complement(t))
    assert equals(lhs, rhs)


@settings(max_examples=50, deadline=None)
@given(_plsets(2))
def test_double_complement(s):
    assert equals(complement(complement(s)), s)


@settings(max_examples=40, deadline=None)
@given(_plsets(2), _plsets(2))
def test_eliminate_commutes_with_union(s, t):
    lhs = eliminate(union(s, t), {0})
    rhs = union(eliminate(s, {0}), eliminate(t, {0}))
    assert equals(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(_plsets(2))
def test_closure_idempotent(s):
    c1 = closure(s)
    assert equals(closure(c1), c1)
    assert is_subset(s, c1)


@settings(max_examples=40, deadline=None)
@given(_plsets(2), _plsets(2))
def test_closure_monotone(s, t):
    merged = union(s, t)
    assert is_subset(closure(s), closure(merged))


@settings(max_examples=50, deadline=None)
@given(_plsets(2))
def test_symmetric_difference_self_empty(s):
    assert is_empty(symmetric_difference(s, s))


@settings(max_examples=40, deadline=None)
@given(_plsets(2))
def test_canonicalize_preserves_extension(s):
    assert equals(canonicalize(s), s)


@settings(max_examples=40, deadline=None)
@given(_plsets(2))
def test_reflect_involution(s):
    assert equals(reflect(reflect(s)), s)


@settings(max_examples=30, deadline=None)
@given(_plsets(2))
def test_existential_forall_duality(s):
    # project-exists = complement of project-forall of the complement
    lhs = exists(s, {1})
    rhs = complement(exists(complement(s), {1}))
    # rhs is the set where *all* y-fibers lie in s; lhs where *some* does.
    assert is_subset(rhs, lhs)
    # and the genuine duality: exists(s) == complement(forall(complement(s)))
    forall_not_s = complement(exists(s, {1}))  # points whose whole fiber misses s
    assert equals(lhs, complement(forall_not_s))


@settings(max_examples=25, deadline=None)
@given(_plsets(2), _plsets(2))
def test_equality_matches_grid_sampling(s, t):
    eq = equals(s, t)
    grid = rational_grid([-3, -3], [3, 3], Fraction(3, 4))
    sampled_equal = all(s.contains(p) == t.contains(p) for p in grid)
    if eq:
        assert sampled_equal
    w = witness(symmetric_difference(s, t))
    if not eq:
        assert w is not None
        assert s.contains(w) != t.contains(w)


def _seeded_plset(rng, n):
    """1-3 cells of 1-4 half-spaces with mixed strictness; normals may be
    zero or parallel, so normalization has constraints to drop."""
    cells_ = []
    for _ in range(rng.randint(1, 3)):
        cons = [
            halfspace(
                [rng.randint(-2, 2) for _ in range(n)],
                Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 4))
        ]
        cells_.append(Cell(n, tuple(cons)))
    return PLSet(n, tuple(cells_))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_operation_outputs_are_nonempty_and_normalized(seed, n):
    # The operations leave normalizing and dropping empty cells to one
    # cleanup pass; every cell they return must have been through it.
    rng = random.Random(seed)
    s, t, k = (_seeded_plset(rng, n) for _ in range(3))
    outputs = {
        "intersect": intersect(s, t),
        "difference": difference(s, t),
        "union": union(s, t),
        "minkowski": minkowski(s, k.cells[0]),
        "exists": exists(s, {rng.randrange(n)}),
        "closure": closure(s),
        "condense": condense(union(s, t)),
        "canonicalize": canonicalize(union(s, t)),
    }
    for name, out in outputs.items():
        for c in out.cells:
            assert not is_empty_cell(c), name
            assert _normalize_constraints(c.constraints) == c.constraints, name


def test_difference_leaves_cells_the_subtrahend_misses_alone():
    s = canonicalize(plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))
    t = plset(2, cell(2, hs([-1, -1], -1)))  # x + y >= 1 misses s
    assert difference(s, t).cells == s.cells


def _reference_difference(s, t):
    """Oracle: the plain sweep, which splits every piece by every
    constraint of every subtrahend cell, whether the cell meets the piece
    or not."""
    pieces = [c for c in s.cells if not is_empty_cell(c)]
    for b in t.cells:
        pieces = [
            Cell(s.dim, p.constraints + (h.negated(),))
            for p in pieces
            for h in b.constraints
        ]
        pieces = [p for p in pieces if not is_empty_cell(p)]
    return PLSet(s.dim, tuple(pieces))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_difference_matches_reference_sweep(seed, n):
    rng = random.Random(seed)
    s, t = _seeded_plset(rng, n), _seeded_plset(rng, n)
    expected = _reference_difference(s, t)
    got = difference(s, t)
    assert equals(got, expected)
    for p in rational_grid([-2] * n, [2] * n, Fraction(1, 2)):
        assert got.contains(p) == expected.contains(p), p
    w = difference_witness(s, t)
    assert (w is None) == is_empty(expected)
    if w is not None:
        assert s.contains(w) and not t.contains(w)
