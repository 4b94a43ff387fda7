"""Cogenerator functors on indicator modules.

For a downset or interval, the socle along a face ``tau`` with nadir
``sigma`` collects the degrees that die when pushed up in any direction
outside ``tau``, persist along ``tau``, and are reached as limits along
``sigma`` (the inclusion-minimal such face).  Everything is computed
degreewise on piecewise-linear carriers:

* boundary degrees atop ``sigma``: the upper boundary of the downset part,
  cut down to the upset part plus the relative interior of ``sigma``;
* the nadir stratification subtracts the boundary degrees of all smaller
  faces between ``tau`` and ``sigma``;
* the closed-socle step keeps the degrees that are maximal modulo ``tau``.

The dual generator functors (tops along faces, attached faces) are obtained
by degree negation, with an independently coded direct route for
cross-checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

from . import qe
from .errors import DimensionMismatch, FaceError, ValidationError
from .geometry import (
    Downset,
    Face,
    Interval,
    PLSet,
    Upset,
    all_faces,
    as_interval,
    cone_cell,
    face_interior,
    lower_boundary_direct,
    project_mod,
    reflect_interval,
    reflect_upset,
    upper_boundary,
    upset_cone_cell,
    zero_face,
)


def _m_tau(tau: Face) -> PLSet:
    """The punctured cone ``R^n_+ minus tau`` as cells ``{q >= 0, q_j > 0}``."""
    return PLSet(tau.dim, tuple(
        upset_cone_cell(Face(tau.dim, frozenset({j}))) for j in sorted(tau.codim_coords)))


def max_along(s: PLSet, tau: Face) -> PLSet:
    """Degrees ``a`` of ``s`` with ``(a + R^n_+) ∩ s  =  a + tau``.

    Computed as ``s`` minus the degrees that survive a push outside ``tau``
    (one Minkowski sum with the punctured-cone cells) minus the degrees whose
    forward ``tau``-ray escapes ``s`` (one complement and one Minkowski sum).
    Any ``s`` gives the same set, but ``s`` should come condensed, as socle
    strata do: this runs no cleanup on it.  The result is condensed.
    """
    if tau.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    escape = qe.minkowski(s, qe.reflect(_m_tau(tau)))
    # Pays at n=4: without it, n=4 cells built 90,689 -> 109,195 (n<=3: 132,845 -> 112,429).
    result = qe.difference(s, qe.condense(escape))
    if result.cells and tau.coords:
        unstable = qe.minkowski(qe.complement(s), cone_cell(tau).reflected())
        result = qe.difference(result, unstable)
    return qe.condense(result)


def min_along(s: PLSet, rho: Face) -> PLSet:
    """Oracle route: order dual of :func:`max_along`,
    ``(a - R^n_+) ∩ s = a - rho``, with the same cleanup points.

    Coded without any reflection so the generator-side pipeline is an
    independent implementation.
    """
    if rho.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    escape = qe.minkowski(s, _m_tau(rho))
    result = qe.difference(s, qe.condense(escape))  # pays, as in max_along
    if result.cells and rho.coords:
        unstable = qe.minkowski(qe.complement(s), cone_cell(rho))
        result = qe.difference(result, unstable)
    return qe.condense(result)


# ---------------------------------------------------------------------------
# Boundary degrees


def boundary_degrees(m: Downset | Upset | Interval, sigma: Face) -> PLSet:
    """Degrees atop ``sigma``: the ``a`` whose tail along the open face,
    ``{a - s'' : s'' in sigma-interior, s'' <= s'}`` for some interior
    ``s'``, lies in the module.

    For an interval ``U ∩ D`` both tail conditions only improve as ``s'``
    shrinks, so one ``s'`` serves both (take the componentwise minimum):

    * the tail lies in ``D`` iff ``a - eps * 1_sigma`` lies in ``D`` for all
      small ``eps > 0``, which is membership in the upper boundary of ``D``
      atop ``sigma``, since ``a - s'' <= a - eps * 1_sigma`` for
      ``eps = min_{i in sigma} s''_i``;
    * the tail lies in ``U`` iff ``a - s'`` does for some interior ``s'``,
      since ``U`` is an upset: that is ``a in U + sigma-interior``.

    For a downset ``U + sigma-interior`` is all of ``R^n``, so the result is
    the upper boundary itself; at the zero face it is the carrier.  The
    result is memoized on ``m``, so a socle table and the oracle checks
    built on the same instance share one computation per face.
    """
    memo = m.__dict__.setdefault("_boundary_degrees", {})
    if sigma in memo:
        return memo[sigma]
    if isinstance(m, Downset):
        result = upper_boundary(m, sigma).carrier
    elif not sigma.coords:
        result = m.carrier
    else:
        iv = as_interval(m)  # a bare Upset, from the CLI or jsonio
        result = qe.intersect(
            upper_boundary(iv.downset, sigma).carrier,
            qe.minkowski(iv.upset.carrier, face_interior(sigma)),
        )
    memo[sigma] = result
    return result


def interval_interior_warning(m: Interval) -> bool:
    """Warn when the carrier has empty interior: degreewise nadir strata may
    then differ from the categorical kernels.  Returns True when flagged."""
    interior = qe.complement(qe.closure(qe.complement(m.carrier)))
    if qe.is_empty(interior) and not qe.is_empty(m.carrier):
        warnings.warn(
            "interval carrier has empty interior; nadir strata are computed "
            "degreewise and may not match categorical kernels",
            stacklevel=2,
        )
        return True
    return False


# ---------------------------------------------------------------------------
# Socle table


@dataclass(frozen=True)
class SocleEntry:
    tau: Face
    sigma: Face
    degrees: PLSet  # in the ambient space
    cosets: PLSet  # image modulo R*tau

    def is_zero(self) -> bool:
        return qe.is_empty(self.degrees)


@dataclass(frozen=True)
class SocleTable:
    base: Interval
    entries: Mapping[tuple[Face, Face], SocleEntry]

    @property
    def dim(self) -> int:
        return self.base.dim

    def entry(self, tau: Face, sigma: Face) -> SocleEntry:
        try:
            return self.entries[(tau, sigma)]
        except KeyError:
            raise FaceError(
                f"no socle entry for tau={sorted(tau.coords)}, sigma={sorted(sigma.coords)}"
            ) from None

    def nonzero_items(self) -> list[SocleEntry]:
        return [
            e
            for _, e in sorted(
                self.entries.items(),
                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()),
            )
            if not e.is_zero()
        ]

    def associated_faces(self) -> frozenset[Face]:
        return frozenset(e.tau for e in self.nonzero_items())

    def cosets_family(self) -> dict[tuple[Face, Face], PLSet]:
        return {k: e.cosets for k, e in self.entries.items()}


def _faces_between(tau: Face, sigma: Face) -> list[Face]:
    """Faces ``sigma'`` with ``tau ⊆ sigma' ⊊ sigma``."""
    import itertools

    extra = sorted(sigma.coords - tau.coords)
    out = []
    for r in range(len(extra)):
        for combo in itertools.combinations(extra, r):
            out.append(Face(tau.dim, tau.coords | set(combo)))
    return out


def socle_stratum(m: Downset | Interval, tau: Face, sigma: Face) -> PLSet:
    """Boundary degrees atop ``sigma`` minus those atop any smaller face
    containing ``tau``: the degrees whose nadir within the open star of
    ``tau`` is exactly ``sigma``."""
    if not tau.coords <= sigma.coords:
        raise FaceError("nadir must contain the face of persistence")
    result = boundary_degrees(m, sigma)
    for smaller in _faces_between(tau, sigma):
        result = qe.difference(result, boundary_degrees(m, smaller))
        if not result.cells:
            break
    return qe.condense(result)


def socle(m: Downset | Interval, tau: Face, sigma: Face) -> SocleEntry:
    """Socle along ``tau`` with nadir ``sigma``: degrees and their cosets."""
    stratum = socle_stratum(m, tau, sigma)
    degrees = max_along(stratum, tau)
    cosets = qe.canonicalize(project_mod(degrees, tau))
    return SocleEntry(tau, sigma, degrees, cosets)


def socle_table(m: Downset | Interval) -> SocleTable:
    iv = as_interval(m)
    if not isinstance(m, Downset):
        interval_interior_warning(iv)
    entries: dict[tuple[Face, Face], SocleEntry] = {}
    for tau in all_faces(iv.dim):
        for sigma in all_faces(iv.dim):
            if tau.coords <= sigma.coords:
                entries[(tau, sigma)] = socle(m, tau, sigma)
    return SocleTable(iv, entries)


def associated_faces(m: Downset | Interval) -> frozenset[Face]:
    """Faces along which the socle is nonzero."""
    return socle_table(m).associated_faces()


def validate_socle_table(table: SocleTable) -> None:
    """Structural invariants: degrees inside the closure of the carrier,
    cosets are projections and antichains, nested nadir strata disjoint."""
    closure = qe.closure(table.base.carrier)
    n = table.dim
    for (tau, sigma), e in table.entries.items():
        if not qe.is_subset(e.degrees, closure):
            raise ValidationError("socle degrees escape the carrier closure")
        if not qe.equals(e.cosets, project_mod(e.degrees, tau)):
            raise ValidationError("cosets are not the projection of the degrees")
        qdim = n - len(tau.coords)
        if qdim > 0 and e.cosets.cells:
            bumped = qe.minkowski(e.cosets, _m_tau(zero_face(qdim)))
            if not qe.is_empty(qe.intersect(e.cosets, bumped)):
                raise ValidationError("socle cosets are not an antichain")
        for (tau2, sigma2), e2 in table.entries.items():
            if tau2 == tau and sigma2.coords < sigma.coords and tau.coords <= sigma2.coords:
                if not qe.is_empty(qe.intersect(e.degrees, e2.degrees)):
                    raise ValidationError("nested nadir strata overlap")


# ---------------------------------------------------------------------------
# Sigma-closure and density


def _quotient_face(sigma: Face, tau: Face, qdim: int) -> Face:
    """Image of ``sigma`` in the quotient modulo ``R tau`` (reindexed)."""
    keep = sorted(set(range(tau.dim)) - tau.coords)
    pos = {j: i for i, j in enumerate(keep)}
    return Face(qdim, frozenset(pos[j] for j in sigma.coords - tau.coords))


def sigma_closure(x: PLSet, sigma: Face, tau: Face) -> PLSet:
    """Points of the quotient all of whose ``sigma``-vicinities meet ``x``.

    A ``sigma``-vicinity of ``a`` is a translate ``u + (sigma-interior + Q_+)``
    with ``a - u`` interior to ``sigma``; demanding a point of ``x`` in every
    vicinity is exactly ``a - sigma-interior ⊆ x - (sigma-interior + Q_+)``,
    i.e. membership in the upper boundary atop ``sigma`` of the downset
    ``x`` minus the cone of the open star of ``sigma``.
    """
    if not tau.coords <= sigma.coords:
        raise FaceError("sigma must contain tau")
    qdim = tau.dim - len(tau.coords)
    if x.dim != qdim:
        raise DimensionMismatch(
            f"expected a set in the quotient of dimension {qdim}, got {x.dim}"
        )
    s = _quotient_face(sigma, tau, qdim)
    hang = upset_cone_cell(s).reflected()
    downset = Downset(qe.minkowski(x, hang))
    return upper_boundary(downset, s).carrier


FamilyMap = Mapping[tuple[Face, Face], PLSet]


def is_dense_family(b: FamilyMap | SocleTable, a: SocleTable) -> bool:
    report = density_report(b, a)
    return report.dense


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    failures: tuple[tuple[Face, Face, tuple], ...]  # (tau, sigma, witness coset)


def density_report(b: FamilyMap | SocleTable, a: SocleTable) -> DensityReport:
    """Check that the sigma-closure of the candidate family covers the full
    socle, entry by entry.  The candidate must be entrywise contained in the
    table (checked); failures carry an exact witness coset."""
    bmap: dict[tuple[Face, Face], PLSet] = dict(
        b.cosets_family() if isinstance(b, SocleTable) else b
    )
    for (tau, sigma), bset in bmap.items():
        target = a.entry(tau, sigma).cosets
        if not qe.is_subset(bset, target):
            w = qe.difference_witness(bset, target)
            raise ValidationError(
                f"candidate family is not contained in the socle at "
                f"tau={sorted(tau.coords)}, sigma={sorted(sigma.coords)}: witness {w}"
            )
    failures = []
    for tau in all_faces(a.dim):
        qdim = a.dim - len(tau.coords)
        pool = qe.union(qe.empty(qdim), *(
            bmap[(tau, sigma)] for sigma in all_faces(a.dim)
            if tau.coords <= sigma.coords and (tau, sigma) in bmap))
        for sigma in all_faces(a.dim):
            if not tau.coords <= sigma.coords:
                continue
            target = a.entry(tau, sigma).cosets
            if qe.is_empty(target):
                continue
            closed = sigma_closure(pool, sigma, tau)
            w = qe.difference_witness(target, closed)
            if w is not None:
                failures.append((tau, sigma, w))
    return DensityReport(dense=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Tops (Matlis-dual generator functors)


@dataclass(frozen=True)
class TopEntry:
    rho: Face
    xi: Face
    degrees: PLSet
    cosets: PLSet

    def is_zero(self) -> bool:
        return qe.is_empty(self.degrees)


def _mirrored(u: Upset | Interval) -> Downset | Interval:
    """The module whose socle the tops of ``u`` reflect.  A bare upset mirrors
    to a downset, skipping the interval route's interior warning and degrees."""
    if isinstance(u, Upset):
        return reflect_upset(u)
    if isinstance(u, Interval):
        return reflect_interval(u)
    raise ValidationError(f"tops are defined for upsets and intervals, got {type(u).__name__}")


def _top_entry(rho: Face, xi: Face, socle_entry: SocleEntry) -> TopEntry:
    """The top along ``rho`` with attachment ``xi`` read off the socle entry
    of the reflected module: reflect its degrees, then project them.  The
    degrees come canonical, and reflection keeps them so, row for row."""
    degrees = qe.reflect(socle_entry.degrees)
    return TopEntry(rho, xi, degrees, qe.canonicalize(project_mod(degrees, rho)))


def top(u: Upset | Interval, rho: Face, xi: Face) -> TopEntry:
    """Top along ``rho`` with attachment ``xi``, by reflecting the socle."""
    return _top_entry(rho, xi, socle(_mirrored(u), rho, xi))


def top_table(u: Upset | Interval) -> dict[tuple[Face, Face], TopEntry]:
    mirrored = socle_table(_mirrored(u))
    return {(rho, xi): _top_entry(rho, xi, e) for (rho, xi), e in mirrored.entries.items()}


def attached_faces(u: Upset | Interval) -> frozenset[Face]:
    return frozenset(e.rho for e in top_table(u).values() if not e.is_zero())


def top_direct(u: Upset, rho: Face, xi: Face) -> TopEntry:
    """Oracle route: independently coded generator pipeline, with lower
    boundaries beneath the faces between ``rho`` and ``xi``, stratified, then
    minimized along ``rho``.  Used to cross-check the reflection route."""
    if not isinstance(u, Upset):
        raise ValidationError("the direct generator route takes an honest upset")
    if not rho.coords <= xi.coords:
        raise FaceError("xi must contain rho")
    stratum = lower_boundary_direct(u, xi).carrier
    for smaller in _faces_between(rho, xi):
        stratum = qe.difference(stratum, lower_boundary_direct(u, smaller).carrier)
        if not stratum.cells:
            break
    degrees = min_along(qe.canonicalize(stratum), rho)
    return TopEntry(rho, xi, degrees, qe.canonicalize(project_mod(degrees, rho)))
