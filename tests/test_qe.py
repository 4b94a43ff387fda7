"""Unit and property tests for the exact linear set engine."""

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from staircase import (
    Cell,
    CellLimitExceeded,
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
    random_downset,
    reflect,
    symmetric_difference,
    union,
    universe,
    witness,
)
from staircase import qe
from staircase.qe import (
    HalfSpace,
    _eliminate_vars,
    _fm_step,
    _light_cleanup,
    _cell_subset_of_cell,
    _drop_redundant_constraints,
    _normalize_constraints,
    _rows_empty,
    clear_caches,
    condense,
    difference_witness,
    get_cell_limit,
    is_empty_cell,
    set_cell_limit,
    witness_cell,
)

from staircase.geometry import (
    _AXIS_CONDITIONS,
    _axis_cell,
    all_faces,
    cone_cell,
    face_interior,
    line_cell,
    orthant_cell,
    upset_cone_cell,
)
from staircase.rationals import dot, int_row
from staircase.socle import _m_tau, boundary_degrees

from conftest import hs, rational_grid, rows_of


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
    for s in (empty(2), universe(2)):
        with pytest.raises(DimensionMismatch):
            s.contains((F(1),))


def test_cell_limit_guard():
    from staircase import CellLimitExceeded

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


def test_fm_step_over_the_cell_limit_raises():
    # rows +-x +- k*y <= 1, k = 1..5: each variable has 10 lower and 10
    # upper bounds, so the first step of the emptiness check is 20 + 100 rows
    from staircase import CellLimitExceeded

    c = Cell(2, tuple(hs([sx, sy * k], 1) for sx in (1, -1) for sy in (1, -1)
                      for k in range(1, 6)))
    clear_caches()
    previous = get_cell_limit()
    set_cell_limit(50)
    try:
        with pytest.raises(CellLimitExceeded,
                           match="Fourier-Motzkin step: size 120 exceeds the cell limit 50"):
            is_empty_cell(c)
    finally:
        set_cell_limit(previous)
    assert not is_empty_cell(c)


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


# --- membership ------------------------------------------------------------


@st.composite
def _scaled_membership_cases(draw, n):
    """A set, an integer point ``p`` over ``d`` and an unreduced factor
    ``k``; some rows pass through the point, strict or not."""
    p = tuple(draw(st.integers(-12, 12)) for _ in range(n))
    d = draw(st.integers(1, 6))
    normals = st.tuples(*[st.integers(-2, 2) for _ in range(n)]).filter(any)
    through = st.builds(
        lambda nr, strict: halfspace(nr, Fraction(sum(a * x for a, x in zip(nr, p)), d), strict),
        normals,
        st.booleans(),
    )
    rows = st.lists(st.one_of(_halfspaces(n), through), max_size=3)
    cells = draw(st.lists(rows, max_size=3))
    return PLSet(n, tuple(Cell(n, tuple(c)) for c in cells)), p, d, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_scaled_membership_cases))
def test_contains_scaled_matches_contains(case):
    s, p, d, k = case
    point = tuple(Fraction(x, d) for x in p)
    want = any(
        all(
            (lhs < h.offset) if h.strict else (lhs <= h.offset)
            for h in c.constraints
            for lhs in [sum((a * x for a, x in zip(h.normal, point)), Fraction(0))]
        )
        for c in s.cells
    )
    assert s.contains(point) == want
    assert s.contains_scaled(tuple(k * x for x in p), k * d) == want


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


def _random_axis_cone(rng, n):
    """A product along the axes of points, rays (open or closed, either way)
    and lines: the summands :func:`minkowski` accepts."""
    cone = _axis_cell(tuple(rng.choice(sorted(_AXIS_CONDITIONS)) for _ in range(n)))
    return cone.reflected() if rng.random() < 0.5 else cone


def _lifted_minkowski(s, k):
    """Test-local copy of the 2n-variable sum: ``x in a`` and ``z - x in b``
    for each pair of cells, then FM eliminates ``x``."""
    n = s.dim
    zero = (0,) * n
    out = []
    for a in s.cells:
        for b in (k,) if isinstance(k, Cell) else k.cells:
            rows = [int_row(zero + h.normal, h.num, h.den, h.strict) for h in a.constraints]
            rows += [int_row(h.normal + tuple(-c for c in h.normal), h.num, h.den, h.strict)
                     for h in b.constraints]
            rows = _normalize_constraints(rows)
            rows = None if rows is None else _eliminate_vars(rows, range(n, 2 * n))
            if rows is not None:
                out.append(Cell(n, tuple(int_row(h.normal[:n], *h[1:]) for h in rows)))
    return PLSet(n, tuple(out))


def _engine_cones(n):
    """Every summand the engine builds, plain and reflected, over all faces."""
    cones = [PLSet(n, (orthant_cell(n, negative),)) for negative in (False, True)]
    for f in all_faces(n):
        cones += [PLSet(n, (build(f),)) for build in
                  (face_interior, upset_cone_cell, line_cell, cone_cell)]
        cones.append(_m_tau(f))
    return cones + [reflect(k) for k in cones]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_minkowski_matches_the_lifted_sum(seed, n):
    # Each axis adds its ray or line by one FM step in n variables; the set
    # must be the one the 2n-variable lift gives.
    rng = random.Random(seed)
    s = _seeded_plset(rng, n)
    k = PLSet(n, tuple(_random_axis_cone(rng, n) for _ in range(rng.randint(1, 3))))
    assert equals(minkowski(s, k), _lifted_minkowski(s, k))


@pytest.mark.parametrize("n", range(1, 5))
def test_minkowski_matches_the_lifted_sum_on_every_engine_cone(n):
    rng = random.Random(n)
    for k in _engine_cones(n):
        for _ in range(2):
            s = _seeded_plset(rng, n)
            assert equals(minkowski(s, k), _lifted_minkowski(s, k)), (s, k)


def test_minkowski_rejects_a_summand_that_is_no_axis_cone():
    s = point_set([0, 0])
    for bad in (cell(2, hs([1, 1], 0)),  # a slanted row
                cell(2, hs([1, 0], 1)),  # an axis row with a nonzero offset
                cell(2, hs([-1, 0], 0), hs([1, -2], 0))):  # a ray and a slanted row
        with pytest.raises(StaircaseError, match="not an axis cone"):
            minkowski(s, bad)
    # an empty axis cone, x < 0 <= x, adds nothing
    assert minkowski(s, cell(2, hs([1, 0], 0, True), hs([-1, 0], 0))).cells == ()


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


_q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_entry = st.one_of(st.integers(-4, 4), _q, st.just(0), st.just(Fraction(0)))
_scale = st.one_of(st.integers(1, 6), st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)))


def _canonical_case(n):
    row = st.lists(_entry, min_size=n, max_size=n)
    return st.tuples(
        row.filter(any), _entry, st.booleans(), _scale, st.lists(row, min_size=1, max_size=4)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_canonical_case))
def test_halfspace_canonical_form_matches_fraction_reference(case):
    # Rows are scaled to a primitive integer normal on construction; the
    # slow reference here works on the row exactly as the caller wrote it.
    a, b, strict, k, points = case
    h = HalfSpace(tuple(a), b, strict)
    assert HalfSpace(tuple(k * x for x in a), k * b, strict) == h
    assert type(h.normal) is tuple and all(type(c) is int for c in h.normal)
    assert gcd(*h.normal) == 1 and type(h.offset) is Fraction
    for p in points:
        value = sum((Fraction(x) * Fraction(y) for x, y in zip(a, p)), Fraction(0))
        assert h.holds(p) == (value < b if strict else value <= b)
        assert dot(a, p) == value and type(dot(a, p)) is Fraction
        assert dot(h.normal, p) == sum(Fraction(x) * Fraction(y) for x, y in zip(h.normal, p))


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


def _sets_and_coords(n):
    return st.tuples(_plsets(n), st.sets(st.integers(0, n - 1), max_size=n - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(_sets_and_coords))
def test_no_cleanup_after_eliminate_or_reflect(case):
    # eliminate runs no cleanup after deleting the zero columns, and a
    # reflected canonical set is not canonicalized again: neither pass
    # would drop or change a cell
    s, coords = case
    projected = eliminate(s, coords)
    assert rows_of(_light_cleanup(projected.cells)) == rows_of(projected.cells)
    c = canonicalize(s)
    assert rows_of(canonicalize(reflect(c)).cells) == rows_of(reflect(c).cells)


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
    # Every cell is normalized when it is built, and the operations leave
    # dropping empty cells to one cleanup pass; every cell they return must
    # have been through both.
    rng = random.Random(seed)
    s, t = (_seeded_plset(rng, n) for _ in range(2))
    outputs = {
        "intersect": intersect(s, t),
        "difference": difference(s, t),
        "union": union(s, t),
        "minkowski": minkowski(s, _random_axis_cone(rng, n)),
        "exists": exists(s, {rng.randrange(n)}),
        "closure": closure(s),
        "condense": condense(union(s, t)),
        "canonicalize": canonicalize(union(s, t)),
    }
    for name, out in outputs.items():
        for c in out.cells:
            assert not is_empty_cell(c), name
            assert _normalize_constraints(c.constraints) == c.constraints, name


def _raw_rows(rng, n):
    """0-6 rows over two directions and the zero normal, so duplicates,
    parallel bounds of mixed strictness and true and false constant rows
    all turn up."""
    directions = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(2)]
    directions.append((0,) * n)
    rows = []
    for _ in range(rng.randint(0, 6)):
        scale = rng.choice((1, 2))
        rows.append(halfspace(
            [scale * c for c in rng.choice(directions)],
            Fraction(rng.randint(-2, 2), rng.choice((1, 2))),
            rng.random() < 0.5,
        ))
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_cell_constructor_normalizes_rows(seed, n):
    rng = random.Random(seed)
    raw = _raw_rows(rng, n)
    c = Cell(n, raw)
    norm = _normalize_constraints(raw)
    if norm is not None:
        assert c.constraints == norm
    else:
        assert c.constraints == (HalfSpace((0,) * n, Fraction(-1)),)
        assert is_empty_cell(c)
        assert witness_cell(c) is None
        assert union(PLSet(n, (c,))).cells == ()
    for _ in range(8):
        p = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n))
        assert c.contains(p) == all(h.holds(p) for h in raw)
    w = witness_cell(c)
    assert (w is None) == is_empty_cell(c)
    if w is not None:
        assert all(h.holds(w) for h in raw)
    wrong = halfspace([0] * (n + 1), rng.randint(-1, 1))  # zero normal, wrong length
    with pytest.raises(DimensionMismatch):
        Cell(n, raw + [wrong])
    with pytest.raises(DimensionMismatch):
        Cell(n, [halfspace([0] * n, -1), wrong])  # after a contradiction too


def test_difference_leaves_cells_the_subtrahend_misses_alone():
    s = canonicalize(plset(2, cell(2, hs([1, 0], 0), hs([0, 1], 0))))
    t = plset(2, cell(2, hs([-1, -1], -1)))  # x + y >= 1 misses s
    assert rows_of(difference(s, t).cells) == rows_of(s.cells)


def test_canonicalize_absorbs_at_every_size():
    def box(lo, hi):
        return cell(2, hs([1, 0], hi), hs([-1, 0], -lo), hs([0, 1], hi), hs([0, -1], -lo))

    # 30 cells, none of whose rows contain another's, so only the pairwise
    # absorb can drop the unit boxes
    s = plset(2, box(0, 30), *(box(i, i + 1) for i in range(29)))
    got = canonicalize(s)
    assert rows_of(got.cells) == [box(0, 30).constraints]
    assert equals(got, s)


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


def _subtrahend_orders(t, seed):
    """``t`` with its cells reversed and in two seeded shuffles."""
    rng = random.Random(seed)
    yield PLSet(t.dim, t.cells[::-1])
    for _ in range(2):
        yield PLSet(t.dim, tuple(rng.sample(t.cells, len(t.cells))))


@pytest.mark.parametrize("seed, n, budget", [(0, 2, 8), (5, 2, 8), (17, 2, 8),
                                             (10003, 3, 5), (10014, 3, 5)])
def test_boolean_answers_do_not_depend_on_the_order_of_the_subtrahend(seed, n, budget):
    # the difference sweep subtracts the cells with the fewest rows first,
    # ties in the order given; any order must give the same sets and truths
    d = random_downset(seed, n, budget)
    pairs = [(boundary_degrees(d, sigma), d.carrier) for sigma in all_faces(n)]
    pairs.append((d.carrier, closure(d.carrier)))
    for s, t in pairs:
        for x, y in ((s, t), (t, s)):
            want = difference(x, y)
            subset, same = is_subset(x, y), equals(x, y)
            for i, z in enumerate(_subtrahend_orders(y, seed)):
                assert equals(difference(x, z), want), i
                assert is_subset(x, z) == subset, i
                assert equals(x, z) == same, i


def _sweep_without_drop(s, t):
    """Oracle: the difference sweep without the up-front drop of contained
    pieces and without skipping a cleanup: the cells of ``t`` widest first,
    every piece split by each (nothing left when it implies every row of
    the cell, the piece itself when the cell misses it), then a cleanup."""
    pieces = list(_light_cleanup(s.cells))
    for b in sorted(t.cells, key=lambda c: len(c.constraints)):
        nxt = []
        for p in pieces:
            cut = [h for h in b.constraints if not p.implies(h)]
            if not cut:
                continue
            if is_empty_cell(Cell(s.dim, p.constraints + tuple(cut))):
                nxt.append(p)
            else:
                nxt.extend(Cell(s.dim, p.constraints + (h.negated(),)) for h in cut)
        pieces = list(_light_cleanup(nxt))
    return PLSet(s.dim, tuple(pieces))


def _inside_row_for_row(rng, b):
    """A cell that implies every row of ``b``: each row tightened by 0, 1/2
    or 1 (made strict or not where it is not tightened, unless already
    strict), plus a random row."""
    rows = []
    for h in b.constraints:
        slack = Fraction(rng.choice((0, 1, 2)), 2)
        rows.append(halfspace(h.normal, h.offset - slack,
                              h.strict or (slack == 0 and rng.random() < 0.5)))
    n = b.dim
    rows.append(halfspace([rng.randint(-2, 2) for _ in range(n)],
                          Fraction(rng.randint(-1, 3)), rng.random() < 0.5))
    return Cell(n, tuple(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_dropping_contained_pieces_matches_the_sweep_without_it(seed, n):
    # the sweep drops each piece that implies every row of some subtrahend
    # cell before it splits any; here such pieces lie inside a narrow cell
    # that the sort puts after a wider one meeting them
    rng = random.Random(seed)
    narrow = Cell(n, tuple(
        halfspace([rng.randint(-1, 1) for _ in range(n)], Fraction(rng.randint(0, 3)),
                  rng.random() < 0.5)
        for _ in range(rng.randint(3, 4))))
    wide = Cell(n, (halfspace([rng.randint(-1, 1) for _ in range(n)],
                              Fraction(rng.randint(-1, 2)), rng.random() < 0.5),))
    inside = [p for p in (_inside_row_for_row(rng, narrow) for _ in range(rng.randint(1, 2)))
              if not is_empty_cell(p)]
    for p in inside:
        assert all(map(p.implies, narrow.constraints))
    s = PLSet(n, _seeded_plset(rng, n).cells + tuple(inside))
    t = PLSet(n, _seeded_plset(rng, n).cells + (narrow, wide))
    for x, y in ((s, t), (t, s), (PLSet(n, tuple(inside)), t)):
        clear_caches()
        want = _sweep_without_drop(x, y)
        got = difference(x, y)
        assert equals(got, want)
        for p in rational_grid([-2] * n, [2] * n, Fraction(1, 2)):
            assert got.contains(p) == want.contains(p), p
        assert is_subset(x, y) == is_empty(want)
        w = difference_witness(x, y)
        assert (w is None) == is_empty(want)
        if w is not None:
            assert want.contains(w) and x.contains(w) and not y.contains(w)


def _cell_around(rng, n):
    """A nonempty cell: rows along three directions, each with either sign
    and scale 1 or 2, so parallel and opposite pairs turn up; each row holds
    at one seeded point, non-strict through it or with slack and either
    strictness."""
    x = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n)]
    directions = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(3)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        normal = [rng.choice((-2, -1, 1, 2)) * c for c in rng.choice(directions)]
        at_x = sum(map(mul, normal, x), Fraction(0))
        slack = Fraction(rng.choice((0, 0, 1, 2)), 2)
        rows.append(halfspace(normal, at_x + slack, slack > 0 and rng.random() < 0.5))
    return Cell(n, tuple(rows))


def _all_fm_reduction(c):
    """Oracle: the forward redundant-row pass with an FM check for every
    row: drop a row when the rows kept so far and after it, with its
    negation, are empty."""
    dropped = []
    for r in c.constraints:
        rest = tuple(h for h in c.constraints if h != r and h not in dropped)
        rows = Cell(c.dim, rest + (r.negated(),)).constraints
        if _eliminate_vars(rows, range(c.dim)) is None:
            dropped.append(r)
    return tuple(h for h in c.constraints if h not in dropped)


def test_sole_bound_rows_match_the_all_fm_pass():
    # a row that alone bounds some axis direction is kept without FM; the
    # rows must be those the FM check of every row keeps
    skipped, checked = [0], [0]
    sole_bounds = qe._sole_bounds

    def recording(c):
        sole = sole_bounds(c)
        skipped[0] += len(sole)
        checked[0] += len(c.constraints) - len(sole)
        return sole

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def check(seed, n):
        c = _cell_around(random.Random(seed), n)
        assert not is_empty_cell(c)
        clear_caches()
        assert _drop_redundant_constraints(c).constraints == _all_fm_reduction(c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qe, "_sole_bounds", recording)
        check()
    assert skipped[0] and checked[0]


# --- memo tables -----------------------------------------------------------------


def _reordered(rng, s):
    """``s`` with each cell's rows in another order: the same cell keys."""
    return PLSet(s.dim, tuple(Cell(s.dim, tuple(rng.sample(c.constraints, len(c.constraints))))
                              for c in s.cells))


def _memoized_calls(s, t, k):
    return (
        ("difference", lambda: difference(s, t)),
        ("is_subset", lambda: is_subset(s, t)),
        ("canonicalize", lambda: canonicalize(union(s, t))),
        ("minkowski", lambda: minkowski(s, k)),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_memoized_operations_match_cold_runs(seed, n):
    # A random sequence over the sets and their reordered twins fills the
    # memo tables; each call from those warm tables must give what the same
    # call gives from cold ones.
    rng = random.Random(seed)
    sets = [_seeded_plset(rng, n) for _ in range(3)]
    sets += [_reordered(rng, s) for s in sets]
    cones = [PLSet(n, tuple(_random_axis_cone(rng, n) for _ in range(rng.randint(1, 2))))
             for _ in range(3)]
    triples = [(rng.choice(sets), rng.choice(sets), rng.choice(cones)) for _ in range(10)]
    clear_caches()
    for s, t, k in triples:
        for _, call in _memoized_calls(s, t, k):
            call()
    warm = [(name, call, call()) for s, t, k in rng.sample(triples, 4)
            for name, call in _memoized_calls(s, t, k)]
    for name, call, got in warm:
        clear_caches()
        cold = call()
        if name == "is_subset":
            assert got == cold
        else:
            assert equals(got, cold), name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_cells_compare_and_hash_by_their_row_set(seed, n):
    # a cell is its own cache key: the same rows in another order give an
    # equal cell with an equal hash, with its own row order kept
    rng = random.Random(seed)
    c = Cell(n, _raw_rows(rng, n))
    rows = list(c.constraints)
    rng.shuffle(rows)
    twin = Cell(n, rows)
    assert twin.constraints == tuple(rows)
    assert twin == c and hash(twin) == hash(c)
    assert c.rowset == frozenset(rows)
    if rows:
        assert Cell(n, rows[1:]) != c


def test_cells_of_different_dimensions_differ():
    assert Cell(1) != Cell(2)
    assert Cell(1, (halfspace([0], -1),)) != Cell(2, (halfspace([0, 0], -1),))


def test_minkowski_memo_keeps_the_dimension():
    # the universe cell has no rows in every dimension, so a memo key
    # without the dimension would hand the second sum the first's cell
    clear_caches()
    assert minkowski(universe(1), Cell(1)).cells == (Cell(1),)
    got = minkowski(universe(2), Cell(2))
    assert got.dim == 2 and [c.dim for c in got.cells] == [2]
    assert equals(got, universe(2))
    clear_caches()


def _engine_tables():
    """Every module-level dict of ``qe``."""
    return {name: table for name, table in vars(qe).items()
            if isinstance(table, dict) and not name.startswith("__")}


def test_clear_caches_empties_every_engine_table():
    from staircase import primary_decomposition, random_downset

    assert list(_engine_tables()) == ["_table"]  # the one engine table
    primary_decomposition(random_downset(10014, 3, 5))
    assert {key[0] for key in qe._table} == {"empty", "split", "subset", "reduced", "cone",
                                             "canonical", "boundary"}
    clear_caches()
    assert not qe._table


def _random_module(kind, seed, n, budget):
    import staircase

    return getattr(staircase, f"random_{kind}")(seed, n, budget)


@pytest.mark.parametrize("kind, seed, budget",
                         [("downset", 3, 8), ("interval", 22000, 3), ("upset", 21000, 4)])
def test_no_value_is_written_to_after_it_is_built(kind, seed, budget):
    # the engine table is the engine's only memo: the public ops leave every
    # instance, carrier, socle entry and component as it was built
    from dataclasses import fields

    from staircase import (Downset, Interval, frontier, irreducible_family,
                           primary_decomposition, reconstruct, socle_table)

    m = _random_module(kind, seed, 2, budget)
    clear_caches()
    pd = primary_decomposition(m)
    table = socle_table(m)
    plsets = [reconstruct(irreducible_family(m, table=table), m)]
    if isinstance(m, Downset):
        plsets.append(frontier(m))
    modules = [m, pd.base, table.base]
    for comp in pd.components.values():
        modules += [comp.interval, comp.hull]
    modules += [part for module in modules if isinstance(module, Interval)
                for part in (module.upset, module.downset)]
    for module in modules:
        assert set(vars(module)) == {f.name for f in fields(module)}, module
        plsets.append(module.carrier)
    for t in (pd.table, table):
        for e in t.entries.values():
            plsets += [e.degrees, e.cosets]
    for s in plsets:
        assert set(vars(s)) == {"dim", "cells"}
    clear_caches()


@pytest.mark.parametrize("kind, seed, n, budget",
                         [("downset", 10014, 3, 5), ("interval", 22000, 2, 3)])
def test_clear_caches_gives_a_reused_instance_a_cold_start(kind, seed, n, budget, monkeypatch):
    # a second decomposition of the same instance after a clear does the
    # same emptiness work as the first
    from staircase import primary_decomposition

    m = _random_module(kind, seed, n, budget)
    calls = [0]
    rows_empty = qe._rows_empty

    def counted(*args):
        calls[0] += 1
        return rows_empty(*args)

    monkeypatch.setattr(qe, "_rows_empty", counted)
    counts = []
    for _ in range(2):
        clear_caches()
        calls[0] = 0
        primary_decomposition(m)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0
    clear_caches()


def test_memo_tables_never_exceed_their_bound(monkeypatch):
    from staircase import irreducible_family, primary_decomposition, random_downset, reconstruct

    clear_caches()
    for i in range(qe._TABLE_LIMIT + 10):
        qe._remember(("key", i), i)
        assert len(qe._table) <= qe._TABLE_LIMIT
    # a small bound, cleared wholesale over and over, changes no answer
    clear_caches()
    monkeypatch.setattr(qe, "_TABLE_LIMIT", 16)
    sizes = []
    remember = qe._remember

    def measured(key, value):
        value = remember(key, value)
        sizes.append(len(qe._table))
        return value

    monkeypatch.setattr(qe, "_remember", measured)
    d = random_downset(10014, 3, 5)
    pd = primary_decomposition(d)
    assert equals(reconstruct(irreducible_family(d, table=pd.table), d), d.carrier)
    assert max(sizes) == 16
    clear_caches()


def test_axis_cells_are_built_once_per_condition_tuple():
    for n in range(1, 4):
        assert orthant_cell(n) is orthant_cell(n)
        for f in all_faces(n):
            assert cone_cell(f) is cone_cell(f)
            assert face_interior(f) is _axis_cell(tuple(">" if i in f.coords else "="
                                                         for i in range(n)))
            # the negative cones are the reflections, as Minkowski summands
            # read them (row order aside), and built once too
            for build in (face_interior, upset_cone_cell, cone_cell):
                assert build(f, negative=True) is build(f, negative=True)
                assert build(f, negative=True) == build(f).reflected()
                assert hash(build(f, negative=True)) == hash(build(f).reflected())
            negative, reflected = _m_tau(f, negative=True).cells, reflect(_m_tau(f)).cells
            assert list(negative) == list(reflected)
            assert list(map(hash, negative)) == list(map(hash, reflected))


# --- parallel rows decided without FM ------------------------------------------


_paired_row = st.tuples(st.integers(0, 2), st.sampled_from((1, -1, 2, -2)), _rat, st.booleans())


def _paired_case(n):
    """Rows along three directions, each taken with either sign and scale,
    so parallel and opposite pairs of mixed strictness keep turning up."""
    directions = st.lists(st.tuples(*[st.integers(-1, 1)] * n).filter(any),
                          min_size=3, max_size=3)
    rows = st.lists(_paired_row, min_size=1, max_size=5)
    return st.tuples(st.just(n), directions, rows, rows)


def _build(n, directions, rows):
    return Cell(n, tuple(halfspace([k * c for c in directions[i]], off, strict)
                         for i, k, off, strict in rows))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(_paired_case))
def test_implies_and_excludes_are_sound(case):
    n, directions, rows, other = case
    c, b = _build(n, directions, rows), _build(n, directions, other)
    for h in b.constraints:
        if c.implies(h):
            assert is_empty_cell(Cell(n, c.constraints + (h.negated(),)))
        if c.excludes(h):
            assert is_empty_cell(Cell(n, c.constraints + (h,)))
        for r in c.constraints:  # two rows meet emptily only if opposite: exact
            one = Cell(n, (r,))
            assert one.implies(h) == is_empty_cell(Cell(n, (r, h.negated())))
            assert one.excludes(h) == is_empty_cell(Cell(n, (r, h)))


def _reference_cell_subset(a, b):
    """Oracle: one FM emptiness check per row of ``b``."""
    return all(is_empty_cell(Cell(a.dim, a.constraints + (h.negated(),)))
               for h in b.constraints)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(_paired_case))
def test_cell_subset_matches_fm_reference(case):
    n, directions, rows, other = case
    a, b = _build(n, directions, rows), _build(n, directions, other)
    assume(not is_empty_cell(a))
    assert _cell_subset_of_cell(a, b) == _reference_cell_subset(a, b)
    assert _cell_subset_of_cell(a, a)
    assert _cell_subset_of_cell(a, Cell(n, a.constraints[:1]))


# --- integer offsets against a Fraction reference ------------------------------


def _ref_row(normal, offset, strict):
    """Test-local canonical form, in Fractions: the primitive integer normal
    and the offset scaled by the same positive factor."""
    rats = [Fraction(c) for c in normal]
    scale = lcm(*(c.denominator for c in rats))
    ints = [int(c * scale) for c in rats]
    g = gcd(*ints) or 1
    return tuple(c // g for c in ints), Fraction(offset) * scale / g, strict


def _ref_normalize(rows):
    best = {}
    for normal, offset, strict in rows:
        if not any(normal):
            if not (0 < offset if strict else 0 <= offset):
                return None
            continue
        prev = best.get(normal)
        if prev is None or offset < prev[0] or (offset == prev[0] and strict and not prev[1]):
            best[normal] = (offset, strict)
    return {(normal, offset, strict) for normal, (offset, strict) in best.items()}


def _ref_fm_step(rows, j, ray=None):
    out = [r for r in rows if r[0][j] == 0]
    if ray is not None:  # rows that meet x - t*sign*e_j most easily at t = 0
        sign, strict = ray
        out += [(normal, offset, was_strict or strict)
                for normal, offset, was_strict in rows if normal[j] * sign < 0]
    for lo_normal, lo_offset, lo_strict in (r for r in rows if r[0][j] < 0):
        for up_normal, up_offset, up_strict in (r for r in rows if r[0][j] > 0):
            a, b = -lo_normal[j], up_normal[j]
            out.append(_ref_row(
                [b * x + a * y for x, y in zip(lo_normal, up_normal)],
                b * lo_offset + a * up_offset,
                lo_strict or up_strict,
            ))
    return _ref_normalize(out)


def _ref_eliminate(rows, idxs):
    """Same variable order as ``_eliminate_vars``: least new rows first,
    ties to the lowest index."""
    remaining = sorted(idxs)
    while remaining:
        costs = []
        for j in remaining:
            lo = sum(1 for r in rows if r[0][j] < 0)
            up = sum(1 for r in rows if r[0][j] > 0)
            costs.append(lo * up - lo - up)
        j = remaining.pop(costs.index(min(costs)))
        rows = _ref_fm_step(rows, j)
        if rows is None:
            return None
    return rows


def _as_ref(rows):
    return None if rows is None else {(h.normal, h.offset, h.strict) for h in rows}


def _assert_canonical_row(h):
    assert h.den > 0 and gcd(h.num, h.den) == 1
    assert type(h.num) is int and type(h.den) is int
    twin = HalfSpace(h.normal, Fraction(h.num, h.den), h.strict)
    assert h == twin and hash(h) == hash(twin)
    assert (h.normal, h.offset, h.strict) == _ref_row(h.normal, h.offset, h.strict)


def _fm_case(n):
    row = st.tuples(st.lists(_entry, min_size=n, max_size=n), _entry, st.booleans())
    # (row index, scale, offset, strict): a bound parallel to an earlier row
    twin = st.tuples(st.integers(0, 4), _scale, _entry, st.booleans())
    return st.tuples(
        st.just(n),
        st.lists(row, min_size=1, max_size=5),
        st.lists(twin, max_size=3),
        st.sets(st.integers(0, n - 1)),
        st.integers(0, 10**6),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_fm_case))
def test_fm_matches_fraction_reference(case):
    # Rows of ints and Fractions; FM (plain and adding a ray), normalization
    # and the rows that negation, reflection and the Minkowski sum with an
    # axis cone build must match the Fraction arithmetic of the test-local
    # reference exactly.
    n, raw, twins, idxs, seed = case
    raw += [([k * x for x in raw[i % len(raw)][0]], b, s) for i, k, b, s in twins]
    rows = _normalize_constraints(HalfSpace(tuple(a), b, s) for a, b, s in raw)
    ref = _ref_normalize(_ref_row(a, b, s) for a, b, s in raw)
    assert _as_ref(rows) == ref
    if rows is None:
        return
    for h in rows:
        _assert_canonical_row(h)
        _assert_canonical_row(h.negated())
        _assert_canonical_row(h.reflected())
        assert _as_ref([h.negated()]) == {_ref_row([-c for c in h.normal], -h.offset, not h.strict)}
        assert _as_ref([h.reflected()]) == {_ref_row([-c for c in h.normal], h.offset, h.strict)}
    for j in range(n):
        for ray in (None, (1, False), (1, True), (-1, False), (-1, True)):
            step = _fm_step(rows, j, ray)
            assert _as_ref(step) == _ref_fm_step(ref, j, ray)
            for h in step or ():
                _assert_canonical_row(h)
    assert _as_ref(_eliminate_vars(rows, idxs)) == _ref_eliminate(ref, idxs)
    c = Cell(n, rows)
    for out in minkowski(PLSet(n, (c,)), _random_axis_cone(random.Random(seed), n)).cells:
        for h in out.constraints:
            _assert_canonical_row(h)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(_fm_case))
def test_fm_step_output_is_its_own_normalization(case):
    # A step that combines no pair returns its rows without a normalizing
    # pass; every step's output must still be the normalization of itself.
    n, raw, twins, _, _ = case
    raw += [([k * x for x in raw[i % len(raw)][0]], b, s) for i, k, b, s in twins]
    rows = _normalize_constraints(HalfSpace(tuple(a), b, s) for a, b, s in raw)
    assume(rows is not None)
    for j in range(n):
        for ray in (None, (1, False), (1, True), (-1, False), (-1, True)):
            step = _fm_step(rows, j, ray)
            if step is not None:
                again = _normalize_constraints(step)
                assert again is not None and len(again) == len(step)
                assert set(again) == set(step), (rows, j, ray)


def test_false_row_is_empty_without_fm_normalizing_its_input():
    # FM no longer normalizes its input, so the canonical false row, which
    # has no variable to eliminate, is caught by its callers.
    for n in range(4):
        clear_caches()
        false = Cell(n, (halfspace([0] * n, -1),))
        assert is_empty_cell(false)
        assert not is_empty_cell(Cell(n))
        assert exists(PLSet(n, (false,)), range(n)).cells == ()
        assert exists(PLSet(n, (false,)), ()).cells == ()
        assert minkowski(PLSet(n, (false,)), Cell(n)).cells == ()
        assert minkowski(universe(n), false).cells == ()


# --- emptiness decided on bare rows, query cells built by extension -----------


def _decision_rows(rng, n):
    """1-7 rows over up to n + 2 directions, each taken with either sign and
    scale, at offsets through one rational point or a half step off it: so
    parallel and opposite rows of mixed strictness, and rows that meet at
    one point only, keep turning up."""
    point = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    directions = [d for d in (tuple(rng.randint(-2, 2) for _ in range(n))
                              for _ in range(rng.randint(1, n + 2))) if any(d)]
    directions = directions or [(1,) * n]
    rows = []
    for _ in range(rng.randint(1, 7)):
        normal = [rng.choice((1, -1, 2, -2)) * c for c in rng.choice(directions)]
        offset = dot(normal, point) + rng.choice((0, 0, 0, F(1, 2), F(-1, 2)))
        rows.append(halfspace(normal, offset, rng.random() < 0.5))
    return rows


def _outcome(decide):
    try:
        return decide()
    except CellLimitExceeded as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_emptiness_kernel_matches_eliminate_vars(seed, n):
    # is_empty_cell decides on the rows without building the last two
    # steps' rows; it must answer as the full elimination does, and raise
    # the same CellLimitExceeded under the same small limits.
    rng = random.Random(seed)
    previous = get_cell_limit()
    try:
        for _ in range(8):
            c = Cell(n, _decision_rows(rng, n))
            used = {j for h in c.constraints for j in range(n) if h.normal[j]}
            if not used:
                continue
            rows = c.constraints
            assert _rows_empty(rows, used) == (_eliminate_vars(rows, used) is None), rows
            for limit in (2, 3, 5, 9):
                set_cell_limit(limit)
                assert (_outcome(lambda: _rows_empty(rows, used))
                        == _outcome(lambda: _eliminate_vars(rows, used) is None)), (rows, limit)
            set_cell_limit(previous)
    finally:
        set_cell_limit(previous)


def test_emptiness_kernel_decides_ties_by_strictness():
    # the last variable pinned between bounds that meet: empty exactly when
    # one of them is strict, in one, two and three variables
    for n in (1, 2, 3):
        for lo_strict in (False, True):
            for up_strict in (False, True):
                rows = [hs([1] * n, 1, up_strict), hs([-1] * n, -1, lo_strict)]
                rows += [hs([1 if k == j else 0 for k in range(n)], 5) for j in range(n - 1)]
                clear_caches()
                assert is_empty_cell(Cell(n, rows)) == (lo_strict or up_strict)
    # two lower and upper bounds, the tightest decide
    rows = [hs([1, 1], 3), hs([1, 1], 2, True), hs([-1, -1], -2), hs([-1, 1], 0)]
    assert is_empty_cell(Cell(2, rows))
    assert not is_empty_cell(Cell(2, rows[:1] + rows[2:]))


def _extension_rows(rng, base):
    """Rows to add to ``base``: its rows negated, parallel or opposite ones
    at nearby offsets, and zero-normal rows, true and false."""
    n = base.dim
    pool = [h for h in base.constraints if any(h.normal)] + [
        h for h in _raw_rows(rng, n) if any(h.normal)]
    extra = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(4) if pool else 3
        strict = rng.random() < 0.5
        if kind == 0:
            extra.append(rng.choice(pool).negated())
        elif kind in (1, 2):  # parallel, or opposite
            h = rng.choice(pool)
            sign = 1 if kind == 1 else -1
            extra.append(halfspace([sign * rng.choice((1, 2)) * c for c in h.normal],
                                   sign * h.offset + F(rng.randint(-1, 1), 2), strict))
        else:
            extra.append(halfspace([0] * n, rng.randint(-1, 1), strict))
    return extra


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_extended_cell_matches_the_constructor(seed, n):
    # Cell.extended normalizes only the added rows against the row index;
    # it must give the constructor's rows in the constructor's order, and
    # an index that matches them, as the constructor's index does (the
    # false cell's lists its one false row).
    def index_lists_rows(c):
        return list(c._rows.items()) == [(h.normal, h) for h in c.constraints]

    rng = random.Random(seed)
    base = Cell(n, _raw_rows(rng, n))  # sometimes the false cell
    assert index_lists_rows(base)
    for _ in range(6):
        extra = _extension_rows(rng, base)
        omit = rng.sample(base.constraints, rng.randint(0, len(base.constraints)))
        got = base.extended(extra, omit=omit)
        kept = tuple(h for h in base.constraints if h not in omit)
        built = Cell(n, kept + tuple(extra))
        assert got.dim == n
        assert got.constraints == built.constraints, (base, extra, omit)
        assert index_lists_rows(got) and index_lists_rows(built)
        assert got.rowset == frozenset(got.constraints)
        assert got == Cell(n, got.constraints)
        assert hash(got) == hash(Cell(n, got.constraints))
        base = got if rng.random() < 0.5 else base
    wrong = halfspace([0] * (n + 1), rng.randint(-1, 1))  # zero normal, wrong length
    with pytest.raises(DimensionMismatch):
        base.extended((wrong,))
    with pytest.raises(DimensionMismatch):
        base.extended((halfspace([0] * n, -1), wrong))  # after a contradiction too


def _limit_reference(rows, a, v):
    """``directional_limit_member`` of one cell, in Fractions."""
    for normal, offset, strict in rows:
        la = sum((Fraction(x) * y for x, y in zip(normal, a)), Fraction(0))
        if la != offset:
            if la > offset:
                return False
            continue
        lv = sum((Fraction(x) * y for x, y in zip(normal, v)), Fraction(0))
        if lv > 0 or (lv == 0 and strict):
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_integer_comparisons_on_ties_match_fraction_reference(seed, n):
    # Points with mixed denominators on a row, or a hair off it: the
    # cross-multiplied comparisons of holds, PLSet.contains and
    # directional_limit_member must agree with Fraction comparisons.
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))

    for _ in range(6):
        a = tuple(q() for _ in range(n))
        v = tuple(rng.choice((-1, 0, 1, q())) for _ in range(n))
        rows = []
        for shift in (0, 0, Fraction(1, 42), Fraction(-1, 42)):
            normal = [rng.choice((rng.randint(-3, 3), q())) for _ in range(n)]
            on = sum((Fraction(x) * y for x, y in zip(normal, a)), Fraction(0))
            rows.append((normal, on + shift, rng.random() < 0.5))
        for normal, offset, strict in rows:
            h = HalfSpace(tuple(normal), offset, strict)
            value = sum((Fraction(x) * y for x, y in zip(normal, a)), Fraction(0))
            expected = value < offset if strict else value <= offset
            assert h.holds(a) == expected
            one = PLSet(n, (Cell(n, (h,)),))
            assert one.contains(a) == expected
            if any(v):
                assert directional_limit_member(one, a, v) == _limit_reference(
                    [(normal, offset, strict)], a, v
                )
        both = PLSet(n, (Cell(n, tuple(HalfSpace(tuple(r[0]), r[1], r[2]) for r in rows[:2])),))
        assert both.contains(a) == all(
            HalfSpace(tuple(r[0]), r[1], r[2]).holds(a) for r in rows[:2]
        )
        if any(v):
            assert directional_limit_member(both, a, v) == _limit_reference(rows[:2], a, v)


def test_halfspace_is_immutable_and_copies():
    import copy
    import pickle

    h = HalfSpace((2, F(1, 2)), F(3, 4), True)
    assert (h.normal, h.num, h.den, h.strict) == ((4, 1), 3, 2, True)
    for mutate in (lambda: setattr(h, "num", 1), lambda: delattr(h, "num")):
        with pytest.raises(AttributeError):
            mutate()
    for twin in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert twin == h and hash(twin) == hash(h)


def test_halfspace_is_its_canonical_tuple():
    # equality, hashing and immutability are the tuple's, over the four
    # canonical parts, and int_row rebuilds the row from them as it is
    for h in (
        HalfSpace((2, F(1, 2)), F(3, 4), True),
        HalfSpace((0, -3, 6), 9),
        HalfSpace((0, 0), -1, True),
    ):
        assert tuple(h) == (h.normal, h.num, h.den, h.strict)
        assert hash(h) == hash(tuple(h))
        assert int_row(*h) == h
