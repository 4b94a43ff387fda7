"""Cogenerator functors on indicator modules.

For a downset or interval, the socle along a face ``tau`` with nadir
``sigma`` collects the degrees that die when pushed up in any direction
outside ``tau``, persist along ``tau``, and are reached as limits along
``sigma`` (the inclusion-minimal such face).  Everything is computed
degreewise on piecewise-linear carriers:

* boundary degrees atop ``sigma``: the upper boundary of the downset part,
  cut down to the upset part plus the relative interior of ``sigma``,
  memoized in the engine table (the frontier reads the full-face one);
* the closed-socle step keeps the degrees atop ``sigma`` that are maximal
  modulo ``tau``;
* the nadir stratification then subtracts the downset part's upper
  boundaries atop the faces between ``tau`` and ``sigma`` one step down
  from ``sigma`` (:func:`socle` says why that order gives the same set).

The dual generator functors (tops along faces, attached faces) are socle
entries of the reflected module, reflected back, with an independently
coded direct route for cross-checking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

from . import qe
from .errors import DimensionMismatch, FaceError, InternalCheckFailure, ValidationError
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
    full_face,
    lower_boundary_direct,
    project_mod,
    reflect_interval,
    reflect_upset,
    upper_boundary,
    upset_cone_cell,
    zero_face,
)


def _m_tau(tau: Face, negative: bool = False) -> PLSet:
    """The punctured cone ``R^n_+ minus tau`` as cells ``{q >= 0, q_j > 0}``;
    its reflection when ``negative``."""
    return PLSet(tau.dim, tuple(upset_cone_cell(Face(tau.dim, frozenset({j})), negative)
                                for j in sorted(tau.codim_coords)))


def max_along(s: PLSet, tau: Face) -> PLSet:
    """Degrees ``a`` of ``s`` with ``(a + R^n_+) ∩ s  =  a + tau``.

    Computed as ``s`` minus the degrees that survive a push outside ``tau``
    (one Minkowski sum with the punctured-cone cells) minus the degrees whose
    forward ``tau``-ray escapes ``s`` (one complement and one Minkowski sum).
    Any ``s`` gives the same set, but ``s`` should come condensed, as the
    boundary degrees that :func:`socle` passes do.  This runs no cleanup on
    ``s``, on the escape set or on the result beyond the light cleanup of
    every boolean operation: :func:`socle` condenses once, after its own
    subtraction, and each extra condense here was measured not to pay
    (README, design notes).

    Before any sum or difference, :func:`_may_have_maximal` reads the signs
    of the rows of ``s``; when it rules every degree out, the result is
    empty without a sweep.
    """
    if tau.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    if not _may_have_maximal(s, tau):
        return qe.empty(s.dim)
    result = qe.difference(s, qe.minkowski(s, _m_tau(tau, negative=True)))
    if result.cells and tau.coords:
        unstable = qe.minkowski(qe.complement(s), cone_cell(tau, negative=True))
        result = qe.difference(result, unstable)
    return result


def _may_have_maximal(s: PLSet, tau: Face) -> bool:
    """False only when :func:`max_along` of ``s`` along ``tau`` is empty.

    A row ``normal . x <= offset`` (or ``<``) bounds the direction ``e_j``
    when ``normal[j] > 0``.  A degree ``a`` needs both of:

    * (i) for each ``j`` in ``tau``, a cell of ``s`` with no row bounding
      ``e_j``.  The ray ``a + R_+ e_j`` lies in ``s``, and finitely many
      convex cells cover it, so one of them holds an unbounded piece of it;
      a row bounding ``e_j`` would bound that piece.
    * (ii) a cell of ``s`` with, for each ``j`` off ``tau``, a non-strict
      row bounding ``e_j``.  ``a`` lies in some cell ``c``, and
      ``a + eps e_j`` is not in ``s``, so not in ``c``, for every
      ``eps > 0``.  Of the finitely many rows of ``c``, one then fails at
      ``a + eps e_j`` for arbitrarily small ``eps`` although it holds at
      ``a``: it is tight at ``a``, so non-strict, and has ``normal[j] > 0``.

    The test reads only row signs, and the proof holds for any set, so
    intervals and reflected upsets take it too.
    """
    cells_ = s.cells
    off = tau.codim_coords
    return all(
        any(all(h.normal[j] <= 0 for h in c.constraints) for c in cells_)
        for j in tau.coords
    ) and any(
        all(any(h.normal[j] > 0 and not h.strict for h in c.constraints) for j in off)
        for c in cells_
    )


def min_along(s: PLSet, rho: Face) -> PLSet:
    """Oracle route: order dual of :func:`max_along`,
    ``(a - R^n_+) ∩ s = a - rho``.

    Coded without any reflection so the generator-side pipeline is an
    independent implementation.  Unlike :func:`max_along` it condenses the
    escape set and the result, since :func:`top_direct` passes it
    fragmented strata and takes the result as the degrees.
    """
    if rho.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    escape = qe.minkowski(s, _m_tau(rho))
    result = qe.difference(s, qe.condense(escape))
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
    result is stored in the engine table under ``("boundary", m, sigma)``
    (an interval's upper boundary under its downset part), so a socle
    table and the oracle checks on the same instance share one computation
    per face until ``qe.clear_caches``.
    """
    return qe.memo(("boundary", m, sigma), _boundary_degrees, m, sigma)


def _boundary_degrees(m: Downset | Upset | Interval, sigma: Face) -> PLSet:
    if isinstance(m, Downset):
        return upper_boundary(m, sigma).carrier
    if not sigma.coords:
        return m.carrier
    iv = as_interval(m)  # a bare Upset, from the CLI or jsonio
    return qe.intersect(
        boundary_degrees(iv.downset, sigma),
        qe.minkowski(iv.upset.carrier, face_interior(sigma)),
    )


def frontier(d: Downset) -> PLSet:
    """Points of the closure outside the downset, computed two ways.  The
    boundary route reads the full-face boundary from the engine table, so
    after a socle table from the same cold start it builds no boundary of
    its own."""
    via_boundary = qe.difference(boundary_degrees(d, full_face(d.dim)), d.carrier)
    via_closure = qe.difference(qe.closure(d.carrier), d.carrier)
    if not qe.equals(via_boundary, via_closure):
        raise InternalCheckFailure("frontier routes disagree")
    return qe.canonicalize(via_boundary)


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
        return [e for e in self.entries.values() if not e.is_zero()]

    def associated_faces(self) -> frozenset[Face]:
        return frozenset(e.tau for e in self.nonzero_items())

    def cosets_family(self) -> dict[tuple[Face, Face], PLSet]:
        return {k: e.cosets for k, e in self.entries.items()}


def _faces_between(tau: Face, sigma: Face) -> list[Face]:
    """The faces ``sigma minus {j}`` for ``j`` in ``sigma`` but not ``tau``.

    Subtracting the boundaries atop these cuts as much as every face
    ``sigma'`` with ``tau ⊆ sigma' ⊊ sigma`` would, for every module kind.
    Each ``sigma'`` lies inside some ``sigma minus {j}``.  The upper boundary
    of ``D`` only grows as the face grows (``D`` is a downset), and
    ``U + face-interior`` only shrinks (``U`` is an upset).  So a degree atop
    ``sigma`` and atop ``sigma'`` is already atop ``sigma minus {j}``.  The
    lower boundaries of :func:`top_direct` also only grow with the face.
    """
    return [Face(tau.dim, sigma.coords - {j}) for j in sorted(sigma.coords - tau.coords)]


def _check_nadir(tau: Face, sigma: Face) -> None:
    if not tau.coords <= sigma.coords:
        raise FaceError("nadir must contain the face of persistence")


def socle_stratum(m: Downset | Interval, tau: Face, sigma: Face) -> PLSet:
    """Oracle route: boundary degrees atop ``sigma`` minus those atop any
    smaller face containing ``tau``, the degrees whose nadir within the open
    star of ``tau`` is exactly ``sigma``; :func:`socle` takes its
    ``tau``-maximal degrees without building it."""
    _check_nadir(tau, sigma)
    result = boundary_degrees(m, sigma)
    for smaller in _faces_between(tau, sigma):
        result = qe.difference(result, boundary_degrees(m, smaller))
        if not result.cells:
            break
    return qe.condense(result)


def _covered_below(b: PLSet, d: Downset, faces: list[Face]) -> bool:
    """True when every cell of ``b`` is a cell of the upper boundary of
    ``d`` atop one of ``faces``, compared as sets of cells: no FM step."""
    cells_ = set(b.cells)
    return any(cells_ <= set(boundary_degrees(d, f).cells) for f in faces)


def socle(m: Downset | Upset | Interval, tau: Face, sigma: Face) -> SocleEntry:
    """Socle along ``tau`` with nadir ``sigma``: degrees and their cosets.

    The degrees are the ``tau``-maximal degrees of the nadir stratum
    (:func:`socle_stratum`), taken straight from the boundaries: with
    ``B = boundary_degrees(m, sigma)`` and ``D`` the downset part of ``m``,
    they are ``max_along(B, tau)`` minus ``upper_boundary(D, sigma - j)``
    for each ``j`` in ``sigma`` but not ``tau``, condensed once.  Proof:

    * Each ``upper_boundary(D, f)`` is a downset, and so is their union
      ``V``.  For any set ``B`` and downset ``V``,
      ``max_along(B - V, tau) = max_along(B, tau) - V``: nothing above a
      point outside ``V`` lies in ``V``, so such a point sees the same part
      of ``B`` above it as of ``B - V``, and no point of ``V`` is in either.
    * For an interval ``U ∩ D``, ``B ⊆ U + sigma° ⊆ U + (sigma - j)°``
      (``U`` is an upset), so on ``B`` the boundary degrees atop
      ``sigma - j``, ``upper_boundary(D, sigma - j) ∩ (U + (sigma - j)°)``,
      are exactly ``upper_boundary(D, sigma - j)``.  For a downset the two
      are equal outright.

    So the stratum is ``B - V`` (:func:`_faces_between`), and ``max_along``
    runs on the canonical, memoized boundary instead of the fragmented
    stratum.  The degrees lie in ``B - upper_boundary(D, sigma - j)`` for
    each such ``j``, so when every cell of ``B`` is a cell of one of those
    boundaries (:func:`_covered_below`), the entry is zero without a call
    to ``max_along``.
    """
    _check_nadir(tau, sigma)
    d = m if isinstance(m, Downset) else as_interval(m).downset
    b = boundary_degrees(m, sigma)
    smaller_faces = _faces_between(tau, sigma)
    if _covered_below(b, d, smaller_faces):
        degrees = qe.empty(b.dim)
    else:
        degrees = max_along(b, tau)
    for smaller in smaller_faces:
        if not degrees.cells:
            break
        degrees = qe.difference(degrees, boundary_degrees(d, smaller))
    degrees = qe.condense(degrees)
    cosets = qe.canonicalize(project_mod(degrees, tau))
    return SocleEntry(tau, sigma, degrees, cosets)


def socle_table(m: Downset | Interval) -> SocleTable:
    iv = as_interval(m)
    if not isinstance(m, Downset):
        interval_interior_warning(iv)
    entries: dict[tuple[Face, Face], SocleEntry] = {}
    # all_faces is in Face.sort_key order, so no reader re-sorts the entries
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
    hang = upset_cone_cell(s, negative=True)
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


def _mirrored(u: Upset | Interval) -> Downset | Interval:
    """The module whose socle the tops of ``u`` reflect.  A bare upset mirrors
    to a downset, skipping the interval route's interior warning and degrees."""
    if isinstance(u, Upset):
        return reflect_upset(u)
    if isinstance(u, Interval):
        return reflect_interval(u)
    raise ValidationError(f"tops are defined for upsets and intervals, got {type(u).__name__}")


def _top_entry(e: SocleEntry) -> SocleEntry:
    """The top along ``rho = e.tau`` with attachment ``xi = e.sigma``: the
    socle entry ``e`` of the reflected module, reflected.  Reflection
    commutes with the projection modulo ``rho`` and keeps canonical sets
    canonical, row for row."""
    return SocleEntry(e.tau, e.sigma, qe.reflect(e.degrees), qe.reflect(e.cosets))


def top(u: Upset | Interval, rho: Face, xi: Face) -> SocleEntry:
    """Top along ``rho`` with attachment ``xi``, by reflecting the socle."""
    return _top_entry(socle(_mirrored(u), rho, xi))


def top_table(u: Upset | Interval) -> dict[tuple[Face, Face], SocleEntry]:
    return {faces: _top_entry(e) for faces, e in socle_table(_mirrored(u)).entries.items()}


def attached_faces(u: Upset | Interval) -> frozenset[Face]:
    """Faces along which the top is nonzero: the reflection's associated faces."""
    return associated_faces(_mirrored(u))


def top_direct(u: Upset, rho: Face, xi: Face) -> SocleEntry:
    """Oracle route: independently coded generator pipeline, with the lower
    boundary beneath ``xi`` stratified by those beneath the faces one step
    down (:func:`_faces_between`), then minimized along ``rho``.  Used to
    cross-check the reflection route."""
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
    return SocleEntry(rho, xi, degrees, qe.canonicalize(project_mod(degrees, rho)))
