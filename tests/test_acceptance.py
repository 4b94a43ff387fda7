"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are exact throughout: every set comparison is
an extensional equality decided by the rational engine, never a numeric
approximation.
"""

import random
import time
import warnings
from fractions import Fraction

import pytest

from staircase import (
    DiscreteDownset,
    DiscreteIdeal,
    all_faces,
    cell,
    closure,
    correspondence_check,
    difference,
    equals,
    face,
    full_face,
    frontier,
    irreducible_family,
    is_dense_family,
    is_downset,
    is_empty,
    is_irredundant,
    is_subset,
    plset,
    point_set,
    primary_decomposition,
    random_downset,
    random_upset,
    reconstruct,
    shape_at,
    socle_isomorphism_check,
    socle_table,
    symmetric_difference,
    top,
    upper_boundary,
    verify_minimality,
    witness,
)
from staircase import qe
from staircase.decompose import IrreducibleFamily
from staircase.discrete import discrete_primary_decomposition
from staircase.socle import top_direct

from conftest import closed_cogenerators_match_scan, hs


def F(a, b=1):
    return Fraction(a, b)


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def corpus2():
    return [random_downset(seed, 2, 8) for seed in range(100)]


@pytest.fixture(scope="module")
def corpus3():
    return [random_downset(10_000 + seed, 3, 5) for seed in range(25)]


@pytest.fixture(scope="module")
def boundaries2(corpus2):
    return [
        {sigma: upper_boundary(d, sigma) for sigma in all_faces(2)} for d in corpus2
    ]


@pytest.fixture(scope="module")
def boundaries3(corpus3):
    return [
        {sigma: upper_boundary(d, sigma) for sigma in all_faces(3)} for d in corpus3
    ]


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_triangle_socle_table(triangle_quotient):
    start = time.perf_counter()
    table = socle_table(triangle_quotient)
    e_x = table.entry(face(2), face(2, [0]))
    target_x = plset(
        2,
        cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([-1, 0], 0, True), hs([1, 0], 1)),
    )
    assert equals(e_x.degrees, target_x)
    e_y = table.entry(face(2), face(2, [1]))
    target_y = plset(
        2,
        cell(2, hs([1, 1], 1), hs([-1, -1], -1), hs([1, 0], 1, True), hs([-1, 0], 0)),
    )
    assert equals(e_y.degrees, target_y)
    assert is_empty(table.entry(face(2), full_face(2)).degrees)
    assert is_empty(table.entry(face(2), face(2)).degrees)
    assert table.associated_faces() == frozenset({face(2)})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"socle table took {elapsed:.3f}s"
    _report(1, f"triangle-quotient socle table exact in {elapsed:.3f}s (< 1s)")


# -- 2 ------------------------------------------------------------------------


def test_criterion_2_reconstruction_exactness(corpus2, corpus3):
    start = time.perf_counter()
    failures = 0
    for d in corpus2 + corpus3:
        pd = primary_decomposition(d)  # internal union check is exact
        reunion = None
        for comp in pd.components.values():
            reunion = (
                comp.interval.carrier
                if reunion is None
                else _union(reunion, comp.interval.carrier)
            )
        if reunion is None or not is_empty(symmetric_difference(reunion, d.carrier)):
            failures += 1
        fam = irreducible_family(d, table=pd.table)
        if not is_empty(symmetric_difference(reconstruct(fam, d), d.carrier)):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 600, f"corpus decomposition took {elapsed:.1f}s"
    _report(
        2,
        f"{len(corpus2)}+{len(corpus3)} random downsets reconstructed exactly "
        f"in {elapsed:.1f}s (< 600s)",
    )


def _union(a, b):
    from staircase import union

    return union(a, b)


# -- 3 ------------------------------------------------------------------------


def _sample_points(rng, n, count):
    pts = []
    for _ in range(count):
        pts.append(tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4])) for _ in range(n)))
    return pts


def _check_boundary_laws(d, bounds, rng, samples):
    n = d.dim
    cl = closure(d.carrier)
    for sigma, bd in bounds.items():
        assert is_subset(d.carrier, bd.carrier), "sandwich lower"
        assert is_subset(bd.carrier, cl), "sandwich upper"
        assert is_downset(bd.carrier), "boundary is a downset"
        assert equals(upper_boundary(bd, sigma).carrier, bd.carrier), "idempotence"
    for s1 in all_faces(n):
        for s2 in all_faces(n):
            if s1.coords <= s2.coords:
                assert is_subset(bounds[s1].carrier, bounds[s2].carrier), "nesting"
    for p in _sample_points(rng, n, samples):
        sh = shape_at(d, p)
        for sigma, bd in bounds.items():
            assert bd.carrier.contains(p) == (sigma in sh), (p, sigma)


def test_criterion_3_boundary_laws(corpus2, corpus3, boundaries2, boundaries3):
    rng = random.Random(20260808)
    for d, bounds in zip(corpus2, boundaries2):
        _check_boundary_laws(d, bounds, rng, samples=1000)
    for d, bounds in zip(corpus3, boundaries3):
        _check_boundary_laws(d, bounds, rng, samples=1000)
    _report(3, "sandwich/nesting/idempotence/downset-ness and 10^3-point "
               "shape agreement hold corpus-wide")


# -- 4 ------------------------------------------------------------------------


def test_criterion_4_frontier_two_routes(corpus2, corpus3, boundaries2, boundaries3):
    for d, bounds in zip(corpus2 + corpus3, boundaries2 + boundaries3):
        top_boundary = bounds[full_face(d.dim)]
        via_boundary = difference(top_boundary.carrier, d.carrier)
        via_closure = difference(closure(d.carrier), d.carrier)
        assert equals(via_boundary, via_closure)
        frontier(d)  # re-checks internally and raises on disagreement
    _report(4, "frontier via full-face boundary equals closure-minus-set "
               "corpus-wide")


# -- 5 ------------------------------------------------------------------------


def test_criterion_5_density_semantics(triangle_quotient):
    table = socle_table(triangle_quotient)
    fam = irreducible_family(triangle_quotient)

    def drop(shape_sets, keys):
        entries = []
        for tau, sigma, a in fam.entries:
            if (tau, sigma) in keys:
                a = difference(a, shape_sets)
            entries.append((tau, sigma, a))
        return IrreducibleFamily(2, tuple(entries))

    both_strata = [(face(2), face(2, [0])), (face(2), face(2, [1]))]

    # deleting one interior point of the cogenerator segment changes nothing
    point = point_set([F(1, 2), F(1, 2)])
    fam_point = drop(point, both_strata)
    assert equals(reconstruct(fam_point, triangle_quotient), triangle_quotient.carrier)
    cosets = dict(table.cosets_family())
    for key in both_strata:
        cosets[key] = difference(cosets[key], point)
    assert is_dense_family(cosets, table)

    # deleting a relatively open subsegment breaks both, with exact witnesses
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
    fam_gap = drop(gap, both_strata)
    recon = reconstruct(fam_gap, triangle_quotient)
    missing = difference(triangle_quotient.carrier, recon)
    w = witness(missing)
    assert w is not None
    assert triangle_quotient.carrier.contains(w) and not recon.contains(w)
    cosets_gap = dict(table.cosets_family())
    for key in both_strata:
        cosets_gap[key] = difference(cosets_gap[key], gap)
    from staircase import density_report

    rep = density_report(cosets_gap, table)
    assert not rep.dense
    tau, sigma, wit = rep.failures[0]
    assert F(1, 4) < wit[0] < F(1, 2) and wit[0] + wit[1] == 1
    _report(
        5,
        f"point deletion stays dense; open-gap deletion fails with witnesses "
        f"{tuple(map(str, w))} (reconstruction) and {tuple(map(str, wit))} (density)",
    )


# -- 6 ------------------------------------------------------------------------


def _random_ideal(rng, n):
    gens = tuple(
        tuple(rng.randint(0, 4) for _ in range(n))
        for _ in range(rng.randint(1, 6))
    )
    return DiscreteDownset(DiscreteIdeal(n, gens))


def test_criterion_6_discrete_oracle():
    start = time.perf_counter()
    rng = random.Random(606)
    for case in range(200):
        n = 2 if case < 140 else 3
        d = _random_ideal(rng, n)
        dec = discrete_primary_decomposition(d)  # union-checked internally
        pieces = dec.irreducible_pieces()
        assert is_irredundant(d, pieces)
        assert len(set(pieces)) == len(pieces)  # uniqueness of the pieces
        assert socle_isomorphism_check(d, dec)
        for tau in dec.cogenerators:
            assert closed_cogenerators_match_scan(d, tau)
    # the pinned classical example
    d = DiscreteDownset(DiscreteIdeal(2, ((2, 0), (1, 1))))
    dec = discrete_primary_decomposition(d)
    ideals = {
        tuple(sorted(comp.complement_ideal_generators()))
        for comp in dec.components.values()
    }
    assert ideals == {((1, 0),), ((0, 1), (2, 0))}
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"discrete oracle took {elapsed:.1f}s"
    _report(6, f"200 random ideals decomposed and cross-checked in "
               f"{elapsed:.1f}s (< 60s); (x^2,xy) = (x) meet (x^2,y)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_7_real_discrete_correspondence():
    rng = random.Random(707)
    mismatches = 0
    for case in range(50):
        n = 2 if case < 35 else 3
        d = _random_ideal(rng, n)
        report = correspondence_check(discrete_primary_decomposition(d))
        mismatches += len(report.mismatches)
    assert mismatches == 0
    _report(7, "closed real staircase socle strata match discrete cogenerator "
               "cosets on 50 instances")


# -- n = 4 --------------------------------------------------------------------


def test_n4_reconstruction_exactness(monkeypatch):
    # seed 6 is the hard case: its socle degrees come to 40-111 cells
    # unless canonicalize absorbs cells contained in others at every size.
    # Its FM work is pinned by the row pairs the FM steps partition out
    # (qe._partition) from cold caches: 13,942 (23,692 before socle decided
    # the provably zero entries without a sweep and the difference sweep
    # took the widest cells first).  The bound leaves room for
    # changes that move the count a little and still fails the designs it
    # guards against, which combined more than 60,000 pairs: socle degrees
    # from the nadir strata, or FM in ascending index order instead of the
    # greedy one.
    pairs = [0]
    partition = qe._partition

    def counted_partition(constraints, j):
        lows, ups, rest = partition(constraints, j)
        pairs[0] += len(lows) * len(ups)
        return lows, ups, rest

    start = time.perf_counter()
    for seed in range(1, 7):
        d = random_downset(seed, 4, 5)
        if seed == 6:
            qe.clear_caches()
            monkeypatch.setattr(qe, "_partition", counted_partition)
        pd = primary_decomposition(d)  # internal union check is exact
        fam = irreducible_family(d, table=pd.table)
        assert equals(reconstruct(fam, d), d.carrier), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"n=4 decomposition took {elapsed:.1f}s"
    assert pairs[0] < 60_000, f"seed 6 combined {pairs[0]:,} FM row pairs"
    _report(2, f"6 random n=4 downsets reconstructed exactly in {elapsed:.1f}s (< 120s); "
               f"seed 6 combined {pairs[0]:,} FM row pairs (< 60,000)")


def test_n4_real_discrete_correspondence():
    rng = random.Random(404)
    for case in range(6):
        d = _random_ideal(rng, 4)
        report = correspondence_check(discrete_primary_decomposition(d))
        assert not report.mismatches, case
    _report(7, "real/discrete correspondence holds on 6 n=4 ideals")


# -- 8 ------------------------------------------------------------------------


def test_criterion_8_matlis_duality():
    for seed in range(20):
        u = random_upset(880 + seed, 2, 5)
        for rho in all_faces(2):
            for xi in all_faces(2):
                if not rho.coords <= xi.coords:
                    continue
                via_reflection = top(u, rho, xi)
                direct = top_direct(u, rho, xi)
                assert equals(via_reflection.degrees, direct.degrees)
                assert equals(via_reflection.cosets, direct.cosets)
    _report(8, "top by reflection equals the direct lower-boundary pipeline "
               "on 20 fuzzed upsets")


# -- 9 ------------------------------------------------------------------------


def test_verify_entry_point_on_pinned_instances(tmp_path, triangle_quotient):
    # the CLI oracle runner is the acceptance-facing entry point; it must
    # come back clean on the pinned instances
    from staircase.cli import run
    from staircase.jsonio import dumps, instance_to_json

    tri = tmp_path / "triangle.json"
    tri.write_text(dumps(instance_to_json(triangle_quotient)))
    out = tmp_path / "report.json"
    assert run(
        ["verify", "--grid-step", "1/2", "--probe", "1/8", "--box", "2",
         "--out", str(out), str(tri)]
    ) == 0
    ideal = tmp_path / "ideal.json"
    ideal.write_text(dumps({"kind": "discrete", "n": 2, "generators": [[2, 0], [1, 1]]}))
    assert run(["verify", "--out", str(out), str(ideal)]) == 0
    _report(0, "CLI verify clean on the pinned instances")


def test_criterion_9_minimality_diagnostic(
    triangle_quotient, half_plane, triangle_plus_ray
):
    assert verify_minimality(primary_decomposition(triangle_quotient)).all_equal
    assert verify_minimality(primary_decomposition(half_plane)).all_equal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = verify_minimality(primary_decomposition(triangle_plus_ray))
    bad = report.discrepancies()
    assert len(bad) == 1
    entry = bad[0]
    assert sorted(entry.tau.coords) == [] and sorted(entry.sigma.coords) == [0]
    assert equals(entry.extra, point_set([1, 0]))
    assert is_empty(entry.missing) and is_empty(entry.duplicated)
    _report(9, "minimality all-equal on triangle and half-plane; exactly the "
               "(1,0) corner discrepancy on triangle-plus-ray")
