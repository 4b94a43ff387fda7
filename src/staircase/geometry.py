"""The partial order on R^n with positive cone R^n_+.

Faces of the positive cone are coordinate subsets; the face lattice is the
boolean lattice on axes.  This module provides face/shape bookkeeping,
validated downsets, upsets and intervals, tangent-cone shapes at points,
upper- and lower-boundary functors, localization and quotient-restriction.
The frontier lives in :mod:`socle`, beside the boundary memo it reads.

Faces are 0-based internally; the JSON layer renders them 1-based.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from . import qe
from .errors import DimensionMismatch, FaceError, InternalCheckFailure, ValidationError
from .qe import Cell, PLSet
from .rationals import HalfSpace, Rat, Vec, vec

# ---------------------------------------------------------------------------
# Faces and shapes


@dataclass(frozen=True)
class Face:
    """A face of R^n_+, identified with the subset of axes it spans."""

    dim: int
    coords: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", frozenset(self.coords))
        if not self.coords <= set(range(self.dim)):
            raise FaceError(
                f"face coordinates {sorted(self.coords)} out of range for n={self.dim}"
            )

    @property
    def codim_coords(self) -> frozenset[int]:
        return frozenset(range(self.dim)) - self.coords

    def is_full(self) -> bool:
        return len(self.coords) == self.dim

    def sort_key(self) -> tuple:
        return (len(self.coords), tuple(sorted(self.coords)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Face({self.dim}, {{{', '.join(map(str, sorted(self.coords)))}}})"


def face(dim: int, coords: Iterable[int] = ()) -> Face:
    return Face(dim, frozenset(coords))


def full_face(dim: int) -> Face:
    return Face(dim, frozenset(range(dim)))


def zero_face(dim: int) -> Face:
    return Face(dim, frozenset())


def all_faces(dim: int) -> list[Face]:
    out = []
    for r in range(dim + 1):
        for combo in itertools.combinations(range(dim), r):
            out.append(Face(dim, frozenset(combo)))
    return out


def indicator_vector(sigma: Face) -> Vec:
    return tuple(
        Fraction(1) if i in sigma.coords else Fraction(0) for i in range(sigma.dim)
    )


@dataclass(frozen=True)
class Shape:
    """An upward-closed set of faces (a cocomplex) in the face lattice."""

    dim: int
    faces: frozenset[Face]

    def __post_init__(self) -> None:
        object.__setattr__(self, "faces", frozenset(self.faces))
        for f in self.faces:
            if f.dim != self.dim:
                raise DimensionMismatch("shape contains a face of wrong dimension")
        if not self.is_upward_closed():
            raise ValidationError("shape is not upward closed in the face lattice")

    def is_upward_closed(self) -> bool:
        """Checks the one-step extensions ``f ∪ {j}`` only: by induction on
        the number of added axes, every larger face then follows."""
        return all(
            Face(self.dim, f.coords | {j}) in self.faces
            for f in self.faces
            for j in f.codim_coords
        )

    def minimal_faces(self) -> frozenset[Face]:
        """The antichain of inclusion-minimal members."""
        return frozenset(
            f
            for f in self.faces
            if not any(g.coords < f.coords for g in self.faces)
        )

    def __contains__(self, f: Face) -> bool:
        return f in self.faces


def open_star(tau: Face) -> Shape:
    """All faces containing ``tau``."""
    rest = sorted(set(range(tau.dim)) - tau.coords)
    members = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            members.append(Face(tau.dim, tau.coords | set(combo)))
    return Shape(tau.dim, frozenset(members))


# Cells attached to faces -------------------------------------------------

# Half-spaces ``(sign * e_i) . x  {<,<=}  0`` for each per-axis condition,
# as (sign, strict) pairs in the order they enter the cell.
_AXIS_CONDITIONS = {
    ">": ((-1, True),),
    ">=": ((-1, False),),
    "=": ((1, False), (-1, False)),
    "<=": ((1, False),),
    "<": ((1, True),),
    "free": (),
}


@functools.cache
def _axis_cell(conditions: tuple[str, ...]) -> Cell:
    """The cell cut out by one condition per axis, each comparing ``x_i``
    with 0: ``">"``, ``">="``, ``"="``, ``"<="``, ``"<"`` or ``"free"``.
    Built once per condition tuple: at most 6^n constants, which hold no
    result."""
    n = len(conditions)
    cons = []
    for i, condition in enumerate(conditions):
        for sign, strict in _AXIS_CONDITIONS[condition]:
            normal = tuple(sign if k == i else 0 for k in range(n))
            cons.append(HalfSpace(normal, Fraction(0), strict))
    return Cell(n, tuple(cons))


def face_interior(sigma: Face, negative: bool = False) -> Cell:
    """Relative interior: ``x_i > 0`` on the face, ``x_j = 0`` off it; its
    reflection (``x_i < 0`` on the face) when ``negative``."""
    on = "<" if negative else ">"
    return _axis_cell(tuple(on if i in sigma.coords else "=" for i in range(sigma.dim)))


def cone_of_shape(nabla: Shape) -> PLSet:
    """Union of the relative interiors of the shape's faces."""
    return qe.union(
        PLSet(nabla.dim, tuple(face_interior(f) for f in sorted(nabla.faces, key=Face.sort_key)))
    )


def upset_cone_cell(sigma: Face, negative: bool = False) -> Cell:
    """``sigma-interior + R^n_+`` as a single cell: ``x_i > 0`` on the face,
    ``x_j >= 0`` off it; its reflection when ``negative``."""
    on, off = ("<", "<=") if negative else (">", ">=")
    return _axis_cell(tuple(on if i in sigma.coords else off for i in range(sigma.dim)))


def orthant_cell(dim: int, negative: bool = False) -> Cell:
    return _axis_cell(("<=" if negative else ">=",) * dim)


def line_cell(tau: Face) -> Cell:
    """The linear span ``R tau``: coordinates off the face pinned to zero."""
    return _axis_cell(tuple("free" if j in tau.coords else "=" for j in range(tau.dim)))


def cone_cell(tau: Face, negative: bool = False) -> Cell:
    """The face ``tau`` as a closed cone: ``x_i >= 0`` on it, ``0`` off it;
    its reflection when ``negative``."""
    on = "<=" if negative else ">="
    return _axis_cell(tuple(on if i in tau.coords else "=" for i in range(tau.dim)))


# ---------------------------------------------------------------------------
# Downsets, upsets, intervals


def is_downset(s: PLSet) -> bool:
    """Exact extensional test ``s - R^n_+ ⊆ s``; the other inclusion of
    ``s = s - R^n_+`` holds for every set, since ``0 ∈ R^n_+``."""
    return qe.is_subset(qe.minkowski(s, orthant_cell(s.dim, negative=True)), s)


def is_upset(s: PLSet) -> bool:
    """Exact extensional test ``s + R^n_+ ⊆ s``, as :func:`is_downset`."""
    return qe.is_subset(qe.minkowski(s, orthant_cell(s.dim, negative=False)), s)


def _validated(carrier: PLSet, negative: bool) -> PLSet:
    """The canonical form of ``carrier``, which must be a downset (if
    ``negative``, else an upset).  On failure the swept set is built a
    second time, for a witness point of ``s ∓ R^n_+`` outside ``s``."""
    canonical = qe.canonicalize(carrier)
    if not (is_downset if negative else is_upset)(canonical):
        swept = qe.minkowski(canonical, orthant_cell(canonical.dim, negative=negative))
        w = qe.difference_witness(swept, canonical)
        raise ValidationError(f"not {'a downset' if negative else 'an upset'}: witness point {w}")
    return canonical


@dataclass(frozen=True)
class Downset:
    carrier: PLSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", _validated(self.carrier, True))

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(frozen=True)
class Upset:
    carrier: PLSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", _validated(self.carrier, False))

    @property
    def dim(self) -> int:
        return self.carrier.dim


@dataclass(frozen=True)
class Interval:
    """Intersection of an upset and a downset, with the pair remembered; the
    carrier is the canonical form of their meet."""

    upset: Upset
    downset: Downset
    carrier: PLSet = field(init=False)

    def __post_init__(self) -> None:
        if self.upset.dim != self.downset.dim:
            raise DimensionMismatch("interval parts of different dimensions")
        carrier = qe.canonicalize(qe.intersect(self.upset.carrier, self.downset.carrier))
        object.__setattr__(self, "carrier", carrier)

    @property
    def dim(self) -> int:
        return self.carrier.dim


def as_interval(m: "Downset | Upset | Interval") -> Interval:
    if isinstance(m, Interval):
        return m
    if isinstance(m, Downset):
        return Interval(Upset(qe.universe(m.dim)), m)
    if isinstance(m, Upset):
        return Interval(m, Downset(qe.universe(m.dim)))
    raise TypeError(f"cannot view {type(m).__name__} as an interval")


def reflect_downset(d: Downset) -> Upset:
    return Upset(qe.reflect(d.carrier))


def reflect_upset(u: Upset) -> Downset:
    return Downset(qe.reflect(u.carrier))


def reflect_interval(i: Interval) -> Interval:
    return Interval(reflect_downset(i.downset), reflect_upset(i.upset))


# ---------------------------------------------------------------------------
# Tangent-cone shapes


def shape_at(d: Downset, a: Iterable[Rat]) -> Shape:
    """The shape of the downset at ``a``: faces whose negated interior ray
    points into ``d`` arbitrarily close to ``a``.

    For the zero face the test degenerates to membership of ``a`` itself.
    For a positive-dimensional face ``sigma`` the single interior ray with
    direction ``-sum(e_i, i in sigma)`` decides the whole relative interior:
    if ``a - eps*s`` lies in the downset for one interior vector ``s`` and all
    small ``eps``, then for any other interior vector ``s'`` one can pick
    ``eps'`` with ``eps'*s' >= eps*s`` coordinatewise on the face, and
    downsets are closed under moving down.  Points separated from the set get
    the empty shape (no faces at all), which is a valid cocomplex.
    """
    av = vec(a)
    if len(av) != d.dim:
        raise DimensionMismatch("point dimension mismatch")
    members = []
    for f in all_faces(d.dim):
        if not f.coords:
            if d.carrier.contains(av):
                members.append(f)
        else:
            direction = tuple(-x for x in indicator_vector(f))
            if qe.directional_limit_member(d.carrier, av, direction):
                members.append(f)
    return Shape(d.dim, frozenset(members))  # constructor asserts upward closure


# ---------------------------------------------------------------------------
# Upper boundary functor


def _is_syntactically_closed(s: PLSet) -> bool:
    return all(not h.strict for c in s.cells for h in c.constraints)


def _tail_row(h: HalfSpace, sigma: Face) -> HalfSpace:
    """The condition on ``a`` that ``a - eps*1_sigma`` satisfies ``h`` for all
    small ``eps > 0``: with ``slope = sum(h.normal[i], i in sigma)`` the
    left side falls as ``eps`` grows when ``slope > 0`` (``h`` relaxed),
    rises when ``slope < 0`` (``h`` strict) and stays put when ``slope = 0``
    (``h`` as it is)."""
    slope = sum(h.normal[i] for i in sigma.coords)
    if slope > 0:
        return h.relaxed()
    return h.strictened() if slope < 0 else h


def upper_boundary(d: Downset, sigma: Face) -> Downset:
    """The degrees ``a`` whose tail ``a - eps*1_sigma`` lies in ``d`` for all
    small ``eps > 0`` (the criterion-3 law of :func:`shape_at` and
    ``socle.boundary_degrees``); that is, ``d`` closed along the flats
    parallel to ``sigma``.

    Algorithm: one rule per row, cell by cell (:func:`_tail_row`, the cases
    of ``qe.directional_limit_member``), then ``canonicalize``.  Per cell
    the rows together say exactly that some initial segment of the open ray
    ``a - eps*1_sigma`` lies in the cell.  For the union: each convex cell
    meets the ray in an interval, and finitely many intervals cover an
    initial segment ``(0, t)`` only if one of them has infimum 0, so by
    pigeonhole a single cell holds an initial segment.  At the zero face
    the tail is ``a`` itself.  A closed downset is returned unchanged too:
    it holds the tail of each of its points and the limit of each tail.
    """
    if sigma.dim != d.dim:
        raise DimensionMismatch("face dimension mismatch")
    if not sigma.coords or _is_syntactically_closed(d.carrier):
        return d
    out = tuple(Cell(d.dim, tuple(_tail_row(h, sigma) for h in c.constraints))
                for c in d.carrier.cells)
    result = qe.canonicalize(PLSet(d.dim, out))
    if not qe.is_subset(d.carrier, result):
        raise InternalCheckFailure("upper boundary lost points of the downset")
    if not qe.is_subset(result, qe.closure(d.carrier)):
        raise InternalCheckFailure("upper boundary escaped the closure")
    return Downset(result)  # constructor re-checks downset-ness


# ---------------------------------------------------------------------------
# Localization, quotient-restriction


def localize(d: Downset, tau: Face) -> Downset:
    """Degrees where the module survives localization along ``tau``: the
    points whose entire forward ``tau``-cone stays in the downset.

    For a downset the stability condition ``exists t : a + t + tau ⊆ D``
    collapses to ``a + tau ⊆ D``, so one complement and one Minkowski sum
    compute it.  The result is invariant under translation by ``R tau``.
    """
    if tau.dim != d.dim:
        raise DimensionMismatch("face dimension mismatch")
    if not tau.coords:
        return d
    bad = qe.minkowski(qe.complement(d.carrier), cone_cell(tau, negative=True))
    loc = Downset(qe.complement(bad))
    if not qe.equals(loc.carrier, qe.minkowski(loc.carrier, line_cell(tau))):
        raise InternalCheckFailure("localization is not R*tau invariant")
    return loc


def project_mod(s: PLSet, tau: Face) -> PLSet:
    """Plain image in the quotient modulo ``R tau`` (delete tau coordinates)."""
    if tau.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    return qe.eliminate(s, tau.coords)


def quotient_restrict(s: PLSet, tau: Face) -> PLSet:
    """Image mod ``R tau`` for a translation-invariant set (checked)."""
    if tau.dim != s.dim:
        raise DimensionMismatch("face dimension mismatch")
    if not qe.equals(s, qe.minkowski(s, line_cell(tau))):
        raise ValidationError(
            "quotient-restriction requires invariance under translation by R*tau"
        )
    return project_mod(s, tau)


# ---------------------------------------------------------------------------
# Lower boundary (for upsets), by reflection and directly


def lower_boundary(u: Upset, xi: Face) -> Upset:
    """Reflection route: reflect, take the upper boundary, reflect back."""
    if xi.dim != u.dim:
        raise DimensionMismatch("face dimension mismatch")
    d = reflect_upset(u)
    return Upset(qe.reflect(upper_boundary(d, xi).carrier))


def lower_boundary_direct(u: Upset, xi: Face) -> Upset:
    """Oracle route: ``{b : b + xi-interior ⊆ U}`` via one complement,
    coded independently of the reflection route :func:`lower_boundary`.

    For an honest upset the tail of the net along ``b + xi-interior`` is in
    the set iff the entire relative interior is, so the two routes agree.
    """
    if xi.dim != u.dim:
        raise DimensionMismatch("face dimension mismatch")
    if not xi.coords:
        return u
    bad = qe.minkowski(qe.complement(u.carrier), face_interior(xi, negative=True))
    return Upset(qe.complement(bad))
