"""Discrete monomial-ideal backend and its brute-force oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import (
    DiscreteDownset,
    DiscreteIdeal,
    closed_cogenerators,
    discrete_irreducible_decomposition,
    discrete_primary_decomposition,
    is_irredundant,
    socle_isomorphism_check,
)
from staircase.discrete import DiscreteComponent, DiscreteDecomposition

from conftest import closed_cogenerators_match_scan


def ideal(n, *gens):
    return DiscreteDownset(DiscreteIdeal(n, tuple(gens)))


def test_generators_minimalized():
    i = DiscreteIdeal(2, ((2, 0), (3, 1), (2, 0)))
    assert i.generators == ((2, 0),)


def test_membership():
    d = ideal(2, (2, 0), (1, 1))
    assert d.contains((1, 0))
    assert not d.contains((2, 0))
    assert d.contains((-3, 5))
    assert d.in_interval((1, 0))
    assert not d.in_interval((-1, 0))


def test_cogenerators_x2_xy():
    d = ideal(2, (2, 0), (1, 1))
    assert closed_cogenerators(d, ()) == ((1, 0),)
    assert closed_cogenerators(d, (1,)) == ((0, 2),)  # the column x = 0
    assert closed_cogenerators(d, (0,)) == ()


def test_cogenerators_maximal_ideal():
    d = ideal(2, (1, 0), (0, 1))
    assert closed_cogenerators(d, ()) == ((0, 0),)
    for tau in [(0,), (1,), (0, 1)]:
        assert closed_cogenerators(d, tau) == ()


def test_cogenerators_principal_x():
    d = ideal(2, (1, 0))
    assert closed_cogenerators(d, (1,)) == ((0, 1),)  # column x = 0
    assert closed_cogenerators(d, ()) == ()
    assert closed_cogenerators(d, (0,)) == ()


def test_zero_ideal_full_face_class():
    d = ideal(2)
    assert closed_cogenerators(d, (0, 1)) == ((1, 1),)
    assert closed_cogenerators(d, ()) == ()


def test_primary_decomposition_x2_xy():
    d = ideal(2, (2, 0), (1, 1))
    dec = discrete_primary_decomposition(d)
    assert set(dec.components) == {frozenset(), frozenset({1})}
    ideals = {
        tuple(sorted(dec.components[tau].complement_ideal_generators()))
        for tau in dec.components
    }
    assert ideals == {((1, 0),), ((0, 1), (2, 0))}  # (x) and (x^2, y)
    pieces = dec.irreducible_pieces()
    assert is_irredundant(d, pieces)
    assert socle_isomorphism_check(d, dec)


def test_artinian_single_component():
    d = ideal(2, (1, 0), (0, 1))
    dec = discrete_primary_decomposition(d)
    assert set(dec.components) == {frozenset()}
    comp = dec.components[frozenset()]
    assert comp.reps == ((0, 0),)
    assert socle_isomorphism_check(d, dec)


def test_x2y_xy2_three_components():
    d = ideal(2, (2, 1), (1, 2))
    dec = discrete_primary_decomposition(d)
    assert set(dec.components) == {frozenset(), frozenset({0}), frozenset({1})}
    assert is_irredundant(d, dec.irreducible_pieces())
    assert socle_isomorphism_check(d, dec)


def test_edge_ideal_of_triangle():
    # (xy, yz, xz) decomposes as (x,y) meet (y,z) meet (x,z): one component
    # per axis, none at the origin face
    d = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
    dec = discrete_primary_decomposition(d)
    assert set(dec.components) == {frozenset({0}), frozenset({1}), frozenset({2})}
    ideals = {
        tuple(sorted(comp.complement_ideal_generators()))
        for comp in dec.components.values()
    }
    assert ideals == {
        ((0, 0, 1), (0, 1, 0)),  # (y, z)
        ((0, 0, 1), (1, 0, 0)),  # (x, z)
        ((0, 1, 0), (1, 0, 0)),  # (x, y)
    }
    assert socle_isomorphism_check(d, dec)


def test_merged_decomposition_fails_socle_check():
    d = ideal(2, (2, 0), (1, 1))
    dec = discrete_primary_decomposition(d)
    bloated = DiscreteComponent(
        d.ideal, frozenset({1}), dec.components[frozenset({1})].reps + ((1, 2),)
    )
    merged = DiscreteDecomposition(
        d.ideal,
        {frozenset(): dec.components[frozenset()], frozenset({1}): bloated},
        dec.cogenerators,
    )
    assert not socle_isomorphism_check(d, merged)


def test_dropping_a_piece_breaks_irredundancy_check():
    d = ideal(2, (2, 1), (1, 2))
    pieces = discrete_irreducible_decomposition(d)
    # a duplicated piece is redundant by construction
    assert not is_irredundant(d, pieces + [pieces[0]])


def _random_ideal(rng, n, max_gens=6, span=4):
    k = rng.randint(1, max_gens)
    gens = tuple(
        tuple(rng.randint(0, span) for _ in range(n)) for _ in range(k)
    )
    return DiscreteDownset(DiscreteIdeal(n, gens))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_scan_matches_fast_enumeration(seed, n):
    rng = random.Random(seed)
    d = _random_ideal(rng, n)
    import itertools

    for r in range(n + 1):
        for tau in itertools.combinations(range(n), r):
            assert closed_cogenerators_match_scan(d, tau)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_fuzz_decomposition_checks(seed, n):
    rng = random.Random(seed + 31)
    d = _random_ideal(rng, n)
    dec = discrete_primary_decomposition(d)  # verifies the union internally
    assert is_irredundant(d, dec.irreducible_pieces())
    assert socle_isomorphism_check(d, dec)


def test_box_scans_raise_under_a_small_cell_limit():
    # the staircase is the 30 x 30 square; its cogenerator scan covers a 32 x 32 box
    from staircase import CellLimitExceeded
    from staircase.qe import get_cell_limit, set_cell_limit

    d = ideal(2, (30, 0), (0, 30))
    previous = get_cell_limit()
    set_cell_limit(500)
    try:
        with pytest.raises(CellLimitExceeded, match="closed_cogenerators"):
            closed_cogenerators(d, ())
        with pytest.raises(CellLimitExceeded):
            discrete_primary_decomposition(d)
    finally:
        set_cell_limit(previous)
    assert closed_cogenerators(d, ()) == ((29, 29),)
