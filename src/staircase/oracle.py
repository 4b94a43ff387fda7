"""Independent verification: rational-grid sampling with epsilon probes for
the real backend, seeded random instance generators, and cross-checks
between the QE engine, the boundary/socle pipeline, and the discrete
backend.

Every disagreement carries a serialized witness point.  Probe-based checks
use three geometrically decreasing epsilons and only count a point when all
three agree, guarding against probe-too-large artifacts; the symbolic
engine remains the ground truth, so agreeing probes that contradict it are
hard failures while disagreeing probes are merely recorded as inconclusive.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Iterable, Iterator

from . import qe
from .discrete import (
    DiscreteDecomposition,
    DiscreteDownset,
    discrete_primary_decomposition,
)
from .errors import OracleMismatch, ValidationError
from .geometry import (
    Cell,
    Downset,
    Face,
    Interval,
    PLSet,
    Upset,
    all_faces,
    face_interior,
    interval,
    reflect_downset,
    reflect_upset,
    shape_at,
    upset_cone_cell,
)
from .rationals import HalfSpace, Vec, frac, int_row, reduce_row, vec
from .socle import SocleTable, _quotient_face, boundary_degrees, frontier, sigma_closure, socle


@dataclass(frozen=True)
class GridSpec:
    """Rational sampling grid with an epsilon for directional probes."""

    lo: Vec
    hi: Vec
    step: Fraction
    probe: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", vec(self.lo))
        object.__setattr__(self, "hi", vec(self.hi))
        object.__setattr__(self, "step", frac(self.step))
        object.__setattr__(self, "probe", frac(self.probe))
        if len(self.lo) != len(self.hi):
            raise ValidationError("grid corners of different dimensions")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValidationError("grid corners out of order")
        if self.step <= 0:
            raise ValidationError("grid step must be positive")
        if not 0 < self.probe < self.step / 2:
            raise ValidationError("probe must lie in (0, step/2)")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def denominator(self) -> int:
        """A common denominator of every grid point and probe depth: the lcm
        of the denominators of ``lo``, ``step`` and ``probe/4``."""
        return math.lcm(
            *(x.denominator for x in self.lo), self.step.denominator, (self.probe / 4).denominator
        )

    def depths(self) -> tuple[int, int, int]:
        """The probe depth, its half and its quarter, each times ``denominator``."""
        quarter = self.probe / 4
        q = quarter.numerator * (self.denominator // quarter.denominator)
        return 4 * q, 2 * q, q

    def _axes(self) -> list[list[Fraction]]:
        counts = [(h - l) // self.step + 1 for l, h in zip(self.lo, self.hi)]
        qe._check_budget(math.prod(counts), "oracle grid")
        return [[l + k * self.step for k in range(c)] for l, c in zip(self.lo, counts)]

    def scaled_points(self) -> Iterator[tuple[tuple[int, ...], Vec]]:
        """Every grid point ``p`` as ``(P, p)``, where the integers ``P`` are
        ``p`` times ``denominator``, the last coordinate running fastest.
        Raises ``CellLimitExceeded`` before the first point when the grid has
        more points than the cell limit."""
        d = self.denominator
        axes = self._axes()
        yield from zip(
            itertools.product(*([x.numerator * (d // x.denominator) for x in a] for a in axes)),
            itertools.product(*axes),
        )


def default_grid(dim: int, radius: int = 3) -> GridSpec:
    return GridSpec(
        tuple(Fraction(-radius) for _ in range(dim)),
        tuple(Fraction(radius) for _ in range(dim)),
        Fraction(1, 2),
        Fraction(1, 8),
    )


@dataclass
class Report:
    """Outcome of one oracle pass over a grid."""

    name: str
    checked: int = 0
    inconclusive: int = 0
    mismatches: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def record(self, point: Vec, expected: object, got: object) -> None:
        self.mismatches.append(
            {
                "point": [str(x) for x in point],
                "expected": expected,
                "got": got,
            }
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "inconclusive": self.inconclusive,
            "mismatches": self.mismatches,
        }

    def raise_if_dirty(self) -> None:
        if self.mismatches:
            raise OracleMismatch(
                f"{self.name}: {len(self.mismatches)} mismatches, "
                f"first witness {self.mismatches[0]['point']}"
            )


Scaled = tuple[int, ...]  # a grid point times ``GridSpec.denominator``


def _grid_check(
    name: str,
    grid: GridSpec,
    symbolic: PLSet,
    expected: Callable[[Scaled, Vec], bool | None],
) -> Report:
    """Walk the grid and compare membership in the engine's ``symbolic`` set
    with the independent ``expected`` answer at every point.

    Each point ``p`` is scaled once to integers ``P = p * grid.denominator``;
    membership is tested on ``P`` and ``expected`` gets ``(P, p)``.  ``None``
    from ``expected`` counts the point as inconclusive."""
    if grid.dim != symbolic.dim:
        raise ValidationError("grid dimension mismatch")
    report = Report(name)
    d = grid.denominator
    contains = symbolic.contains_scaled
    for P, p in grid.scaled_points():
        report.checked += 1
        got, want = contains(P, d), expected(P, p)
        if want is None:
            report.inconclusive += 1
        elif want != got:
            report.record(p, want, got)
    return report


def _three_depths(answers: Iterable[bool]) -> bool | None:
    """The answer at the probe depth, its half and its quarter, or ``None``
    when the three disagree."""
    values = set(answers)
    return values.pop() if len(values) == 1 else None


def _face_shifts(sigma: Face, grid: GridSpec) -> list[Scaled]:
    """The indicator of ``sigma`` times each of ``grid.depths()``."""
    return [tuple(e if i in sigma.coords else 0 for i in range(sigma.dim)) for e in grid.depths()]


def sample_check_membership(
    s: PLSet,
    grid: GridSpec,
    predicate: Callable[[Vec], bool],
    name: str = "membership",
) -> Report:
    """Compare symbolic membership in ``s`` with an independent ``predicate``
    gridwise."""
    return _grid_check(name, grid, s, lambda P, p: predicate(p))


def boundary_probe_check(d: Downset, sigma: Face, grid: GridSpec) -> Report:
    """Upper boundary membership vs the decreasing-epsilon ray probe (at the
    zero face the ray is the point itself, tested once)."""
    contains, den = d.carrier.contains_scaled, grid.denominator
    if sigma.coords:
        shifts = _face_shifts(sigma, grid)
        expected = lambda P, p: _three_depths(
            contains(tuple(map(sub, P, shift)), den) for shift in shifts
        )
    else:
        expected = lambda P, p: contains(P, den)
    return _grid_check(
        f"boundary-probe sigma={sorted(sigma.coords)}",
        grid,
        boundary_degrees(d, sigma),
        expected,
    )


def shape_consistency_check(d: Downset, grid: GridSpec, sigma: Face) -> Report:
    """``a`` in the upper boundary atop ``sigma`` iff ``sigma`` lies in the
    shape at ``a``; exact on every grid point, no probes involved."""
    return _grid_check(
        f"boundary-vs-shape sigma={sorted(sigma.coords)}",
        grid,
        boundary_degrees(d, sigma),
        lambda P, p: sigma in shape_at(d, p),
    )


def _tail_cell(a: Scaled, d: int, sigma: Face, depth: int) -> Cell:
    """``{a/d - s'' : s'' in sigma-interior, s'' <= (depth/d) * indicator}``."""
    n = sigma.dim
    cons: list[HalfSpace] = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        on_face = i in sigma.coords
        below = (depth if on_face else 0) - a[i]
        cons.append(int_row(*reduce_row(e, a[i], d), on_face))  # x_i < a_i on the face, = off it
        cons.append(int_row(*reduce_row(tuple(-c for c in e), below, d), False))
    return Cell(n, tuple(cons))


def interval_boundary_probe_check(m: Interval, sigma: Face, grid: GridSpec) -> Report:
    """Boundary degrees of an interval vs exact finite-depth tail queries.

    A degree survives the direct limit along ``sigma`` iff some positive
    depth makes the whole tail region land inside the carrier; the condition
    only improves as the depth shrinks, so testing three decreasing depths
    with exact containment is sound: an agreeing probe that contradicts the
    symbolic answer is a genuine engine failure.
    """

    den, depths = grid.denominator, grid.depths()

    def probe(P: Scaled, p: Vec) -> bool | None:
        if not sigma.coords:
            return m.carrier.contains_scaled(P, den)
        return _three_depths(
            qe.is_subset(PLSet(m.dim, (_tail_cell(P, den, sigma, e),)), m.carrier)
            for e in depths
        )

    return _grid_check(
        f"interval-boundary-probe sigma={sorted(sigma.coords)}",
        grid,
        boundary_degrees(m, sigma),
        probe,
    )


def boundary_degrees_direct(carrier: PLSet, sigma: Face) -> PLSet:
    """Oracle route: boundary degrees of the module with this carrier,
    straight from the tail condition.

    ``a`` qualifies iff some ``s'`` in the relative interior of ``sigma`` has
    the whole tail ``{a - s'' : s'' interior, s'' <= s'}`` inside the
    carrier: two elimination layers around one complement, in ``3n``
    variables.  Coded independently of :func:`socle.boundary_degrees`, which
    it cross-checks in the tests.
    """
    n = carrier.dim
    if not sigma.coords:
        return carrier
    interior = face_interior(sigma).constraints
    zero = (0,) * n
    units = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]

    # Blocks: a (0..n), s' (n..2n), s'' (2n..3n).  The tail: s'' interior, s'' <= s'.
    tail = [HalfSpace(zero + zero + h.normal, h.offset, h.strict) for h in interior]
    tail += [HalfSpace(zero + tuple(-x for x in u) + u, Fraction(0)) for u in units]
    bad_cells = [
        Cell(3 * n, tuple(tail) + tuple(  # a - s'' outside the carrier
            HalfSpace(h.normal + zero + tuple(-x for x in h.normal), h.offset, h.strict)
            for h in c.constraints
        ))
        for c in qe.complement(carrier).cells
    ]
    bad = qe.eliminate(PLSet(3 * n, tuple(bad_cells)), range(2 * n, 3 * n))
    good = qe.complement(bad)  # pairs (a, s') whose tail stays inside
    sprime_interior = Cell(
        2 * n, tuple(HalfSpace(zero + h.normal, h.offset, h.strict) for h in interior)
    )
    restricted = qe.intersect(good, PLSet(2 * n, (sprime_interior,)))
    return qe.canonicalize(qe.eliminate(restricted, range(n, 2 * n)))


def sigma_closure_probe_check(
    x: PLSet, sigma: Face, tau: Face, grid: GridSpec
) -> Report:
    """Sigma-closure identity vs direct vicinity sampling.

    A point is probed by intersecting ``x`` with the vicinities spawned at
    three depths along the face interior; vicinity membership shrinks as the
    depth does, and agreement across the three depths is required.
    """
    qdim = x.dim
    s = _quotient_face(sigma, tau, qdim)
    shifts = _face_shifts(s, grid)
    cone = upset_cone_cell(s)
    den = grid.denominator

    def meets_vicinity(P: Scaled, shift: Scaled) -> bool:
        vicinity = _translated_cell(cone, tuple(map(sub, P, shift)), den)
        return not qe.is_empty(qe.intersect(x, PLSet(qdim, (vicinity,))))

    return _grid_check(
        f"sigma-closure-probe tau={sorted(tau.coords)} sigma={sorted(sigma.coords)}",
        grid,
        sigma_closure(x, sigma, tau),
        lambda P, p: _three_depths(meets_vicinity(P, shift) for shift in shifts),
    )


def _translated_cell(c: Cell, u: Scaled, d: int) -> Cell:
    """The cell ``c + u/d``: each row ``l.x <= b`` becomes ``l.x <= b + l.u/d``."""
    return Cell(
        c.dim,
        tuple(
            int_row(*reduce_row(normal, num * d + den * sum(map(mul, normal, u)), den * d), strict)
            for normal, num, den, strict in c.constraints
        ),
    )


# ---------------------------------------------------------------------------
# Random instances


def _random_fraction(rng: random.Random, span: int = 3, denominators=(1, 1, 2, 4)) -> Fraction:
    den = rng.choice(denominators)
    num = rng.randint(-span * den, span * den)
    return Fraction(num, den)


def _random_halfspace(rng: random.Random, n: int, nonnegative_normal: bool) -> HalfSpace:
    while True:
        if nonnegative_normal:
            normal = tuple(rng.randint(0, 2) for _ in range(n))
        else:
            normal = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(c != 0 for c in normal):
            break
    return HalfSpace(normal, _random_fraction(rng), rng.random() < 0.5)


def random_downset(seed: int, n: int, cell_budget: int = 6) -> Downset:
    """Seed-deterministic random downset: random half-space stacks, each
    downward-closed through a random shape cone, unioned and canonicalized.
    Regenerates with fewer pieces when the canonical form exceeds the
    budget."""
    rng = random.Random(seed)
    for attempt in range(50):
        pieces = rng.randint(1, max(1, cell_budget))
        cells = []
        for _ in range(pieces):
            kind = rng.random()
            if kind < 0.45:
                stack = Cell(
                    n,
                    tuple(
                        _random_halfspace(rng, n, nonnegative_normal=True)
                        for _ in range(rng.randint(1, 2))
                    ),
                )
            else:
                point = tuple(_random_fraction(rng) for _ in range(n))
                stack = Cell(
                    n,
                    tuple(
                        HalfSpace(
                            tuple(1 if k == i else 0 for k in range(n)),
                            point[i],
                            rng.random() < 0.5,
                        )
                        for i in range(n)
                    ),
                )
            sigma = Face(n, frozenset(i for i in range(n) if rng.random() < 0.5))
            closed_down = qe.minkowski(
                PLSet(n, (stack,)), upset_cone_cell(sigma).reflected()
            )
            cells.extend(closed_down.cells)
        candidate = qe.canonicalize(PLSet(n, tuple(cells)))
        if 0 < len(candidate.cells) <= cell_budget:
            return Downset(candidate)
    raise ValidationError(f"could not generate a downset within budget {cell_budget}")


def random_upset(seed: int, n: int, cell_budget: int = 6) -> Upset:
    return reflect_downset(random_downset(seed, n, cell_budget))


def random_interval(seed: int, n: int, cell_budget: int = 6) -> Interval:
    """Random nonempty interval: meet of a random downset and upset."""
    for bump in range(200):
        d = random_downset(seed * 1000003 + 2 * bump, n, cell_budget)
        u = random_upset(seed * 7777783 + 2 * bump + 1, n, cell_budget)
        carrier = qe.intersect(u.carrier, d.carrier)
        if not qe.is_empty(carrier):
            return interval(u, d)
    raise ValidationError("could not generate a nonempty interval")


# ---------------------------------------------------------------------------
# Real/discrete correspondence


def real_staircase(decomposition: DiscreteDecomposition) -> Downset:
    """The closed real staircase spanned by the discrete cogenerator
    classes: one closed cell ``{x_j <= rep_j off tau}`` per class."""
    n = decomposition.dim
    cells = []
    for tau, reps in decomposition.cogenerators.items():
        off = sorted(set(range(n)) - tau)
        for rep in reps:
            cons = tuple(
                HalfSpace(
                    tuple(1 if k == j else 0 for k in range(n)),
                    Fraction(rep[j]),
                    False,
                )
                for j in off
            )
            cells.append(Cell(n, cons))
    return Downset(PLSet(n, tuple(cells)))


def correspondence_check(decomposition: DiscreteDecomposition) -> Report:
    """Closed socle strata of the real staircase of a discrete decomposition
    must project to exactly its cogenerator cosets, face by face."""
    report = Report("real-discrete-correspondence")
    staircase = real_staircase(decomposition)
    n = decomposition.dim
    for tau in all_faces(n):
        report.checked += 1
        entry = socle(staircase, tau, tau).cosets  # closed stratum: nadir = face
        off = sorted(set(range(n)) - tau.coords)
        reps = decomposition.cogenerators.get(frozenset(tau.coords), ())
        points = [tuple(Fraction(r[j]) for j in off) for r in reps]
        target = qe.union(qe.empty(n - len(tau.coords)), *map(qe.point_set, points))
        if not qe.equals(entry, target):
            w = qe.witness(qe.symmetric_difference(entry, target))
            report.record(w or (), "discrete cosets", "real closed stratum")
    return report


# ---------------------------------------------------------------------------
# Instance verification (the CLI `verify` entry point)


@dataclass
class VerifyReport:
    reports: list[Report] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.reports)

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "checks": [r.to_json() for r in self.reports],
        }


def verify_instance(
    obj: Downset | Upset | Interval | DiscreteDownset,
    grid: GridSpec | None = None,
) -> VerifyReport:
    """Run the oracle suite appropriate to the instance kind."""
    out = VerifyReport()
    if isinstance(obj, DiscreteDownset):
        decomposition = discrete_primary_decomposition(obj)
        from .discrete import is_irredundant, socle_isomorphism_check

        r = Report("discrete-irredundant")
        r.checked = len(decomposition.irreducible_pieces())
        if not is_irredundant(obj, decomposition.irreducible_pieces()):
            r.record((), True, False)
        out.reports.append(r)
        r2 = Report("discrete-socle-isomorphism")
        r2.checked = 1
        if not socle_isomorphism_check(obj, decomposition):
            r2.record((), True, False)
        out.reports.append(r2)
        out.reports.append(correspondence_check(decomposition))
        return out

    if isinstance(obj, Upset):
        reports, mirrored_table = _verify_real(reflect_upset(obj), grid)
        out.reports.extend(reports)
        out.reports.append(_top_routes_report(obj, mirrored_table))
        return out
    if isinstance(obj, (Downset, Interval)):
        out.reports.extend(_verify_real(obj, grid)[0])
        return out
    raise ValidationError(f"cannot verify a {type(obj).__name__}")


def _top_routes_report(u: Upset, mirrored: SocleTable) -> Report:
    """Generator functor computed by reflection vs the direct pipeline.

    ``mirrored`` is the socle table of the reflected upset, whose entries
    reflect to the tops of ``u``; this is the table :func:`_verify_real`
    already built for it."""
    from .socle import _top_entry, top_direct

    report = Report("top-route-agreement")
    for (rho, xi), e in mirrored.entries.items():
        a = _top_entry(e)
        report.checked += 1
        b = top_direct(u, rho, xi)
        if not (qe.equals(a.degrees, b.degrees) and qe.equals(a.cosets, b.cosets)):
            w = qe.witness(qe.symmetric_difference(a.degrees, b.degrees))
            report.record(w or (), "reflection route", "direct route")
    return report


def _verify_real(
    m: Downset | Interval, grid: GridSpec | None
) -> tuple[list[Report], SocleTable]:
    """The oracle reports of ``m``, and the socle table they checked."""
    from .decompose import irreducible_family, primary_decomposition, reconstruct
    from .socle import validate_socle_table

    g = grid or default_grid(m.dim)
    if isinstance(m, Downset):
        closed, front = qe.closure(m.carrier), frontier(m)  # raises on two-route disagreement
        member = lambda p: closed.contains(p) and not front.contains(p)
    else:
        member = lambda p: m.upset.carrier.contains(p) and m.downset.carrier.contains(p)
    reports = [sample_check_membership(m.carrier, g, member)]
    if isinstance(m, Downset):
        for sigma in all_faces(m.dim):
            reports.append(boundary_probe_check(m, sigma, g))
        reports.append(shape_consistency_check(m, g, Face(m.dim, frozenset(range(m.dim)))))
    else:
        for sigma in all_faces(m.dim):
            reports.append(interval_boundary_probe_check(m, sigma, g))
    decomposition = primary_decomposition(m)  # raises on union failure
    table = decomposition.table
    validate_socle_table(table)
    structural = Report("socle-structure")
    structural.checked = len(table.entries)
    reports.append(structural)
    recon = reconstruct(irreducible_family(m, table=table), m)
    rr = Report("irreducible-reconstruction")
    rr.checked = 1
    if not qe.equals(recon, m.carrier):
        rr.record(qe.witness(qe.symmetric_difference(recon, m.carrier)) or (), True, False)
    reports.append(rr)
    for entry in table.nonzero_items():
        qdim = entry.cosets.dim
        if qdim == 0:
            continue
        sub = GridSpec(
            g.lo[:qdim], g.hi[:qdim], g.step * 2, g.probe
        )
        reports.append(
            sigma_closure_probe_check(entry.cosets, entry.sigma, entry.tau, sub)
        )
    return reports, table
