"""Canonical primary and irreducible decompositions of PL downsets and
intervals, coprimarity tests, minimality diagnostics, and fringe
presentations.

The building block is the coprincipal downset ``A + R*tau - (sigma-interior
+ R^n_+)`` hanging from a set of cogenerator degrees; the canonical primary
component for an associated face gathers the coprincipal downsets of all its
nadir strata and intersects with the base.  The union of components is
checked to reproduce the base exactly; failure raises, since it would mean
an engine bug rather than bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import qe
from .errors import FaceError, InternalCheckFailure
from .geometry import (
    Downset,
    Face,
    Interval,
    PLSet,
    Upset,
    all_faces,
    line_cell,
    orthant_cell,
    upset_cone_cell,
)
from .socle import SocleTable, socle_table


def coprincipal(a: PLSet, tau: Face, sigma: Face) -> Downset:
    """The downset ``a + R*tau - (sigma-interior + R^n_+)``.

    Translation along ``R*tau`` first makes the result a union of one
    coprincipal downset per coset of the degrees.  Not memoized:
    :func:`reconstruct` builds again what :func:`primary_component` built,
    from the Minkowski sums and canonical forms in the engine table.  That
    adds no FM run on the decompose corpus (``scripts/work_counts.py``);
    on the n=4 instances it adds only what the one table clear during
    seed 6 drops (fm 9,051 with a memo of this function, 9,198 without).
    """
    if not tau.coords <= sigma.coords:
        raise FaceError("sigma must contain tau")
    if tau.dim != a.dim or sigma.dim != a.dim:
        raise FaceError("face dimension mismatch")
    swept = qe.minkowski(a, line_cell(tau)) if tau.coords else a
    return Downset(qe.minkowski(swept, upset_cone_cell(sigma, negative=True)))


@dataclass(frozen=True)
class PrimaryComponent:
    tau: Face
    interval: Interval  # the component as a downset inside the base
    hull: Downset  # its downward closure in the ambient space


@dataclass(frozen=True)
class PrimaryDecomposition:
    base: Interval
    components: Mapping[Face, PrimaryComponent]
    table: SocleTable


def primary_component(tau: Face, table: SocleTable) -> PrimaryComponent:
    """Union of the coprincipal downsets of all nadir strata along ``tau``,
    intersected with the carrier of the table's base."""
    iv = table.base
    if tau not in table.associated_faces():
        raise FaceError(f"face {sorted(tau.coords)} is not associated")
    entries = [table.entry(tau, sigma)
               for sigma in all_faces(iv.dim) if tau.coords <= sigma.coords]
    pieces = qe.union(qe.empty(iv.dim), *(
        coprincipal(e.degrees, tau, e.sigma).carrier for e in entries if not e.is_zero()))
    component = Interval(iv.upset, Downset(qe.intersect(iv.downset.carrier, pieces)))
    hull = Downset(qe.minkowski(component.carrier, orthant_cell(iv.dim, negative=True)))
    return PrimaryComponent(tau, component, hull)


def primary_decomposition(m: Downset | Interval) -> PrimaryDecomposition:
    table = socle_table(m)
    iv = table.base
    components: dict[Face, PrimaryComponent] = {}
    for tau in sorted(table.associated_faces(), key=Face.sort_key):
        components[tau] = primary_component(tau, table)
    reunion = qe.union(qe.empty(iv.dim), *(comp.interval.carrier for comp in components.values()))
    leftover = qe.symmetric_difference(reunion, iv.carrier)
    if not qe.is_empty(leftover):
        raise InternalCheckFailure(
            f"primary components do not reassemble the base: witness {qe.witness(leftover)}"
        )
    return PrimaryDecomposition(iv, components, table)


@dataclass(frozen=True)
class IrreducibleFamily:
    dim: int
    entries: tuple[tuple[Face, Face, PLSet], ...]  # (tau, sigma, cogenerator degrees)


def irreducible_family(
    m: Downset | Interval, table: SocleTable | None = None
) -> IrreducibleFamily:
    if table is None:
        table = socle_table(m)
    entries = tuple(
        (e.tau, e.sigma, e.degrees) for e in table.nonzero_items()
    )
    return IrreducibleFamily(table.dim, entries)


def reconstruct(family: IrreducibleFamily, base: Downset | Interval) -> PLSet:
    """Union of the coprincipal downsets of the family, cut to the base."""
    if family.dim != base.dim:
        raise FaceError("family dimension mismatch")
    total = qe.union(qe.empty(base.dim), *(
        coprincipal(degrees, tau, sigma).carrier
        for tau, sigma, degrees in family.entries if not qe.is_empty(degrees)))
    # Pays in FM runs (scripts/work_counts.py): without this condense,
    # 9,198 -> 9,300 at n=4 and 24,297 -> 24,298 at n<=3.
    return qe.canonicalize(qe.intersect(qe.condense(total), base.carrier))


def is_coprimary(m: Downset | Interval, tau: Face) -> bool:
    """True iff ``tau`` is the unique associated face."""
    return socle_table(m).associated_faces() == frozenset({tau})


@dataclass(frozen=True)
class MinimalityEntry:
    tau: Face
    sigma: Face
    extra: PLSet  # component socle cosets absent from the base socle
    missing: PLSet  # base socle cosets hit by no component
    duplicated: PLSet  # cosets claimed by two or more components

    @property
    def equal(self) -> bool:
        return (
            qe.is_empty(self.extra)
            and qe.is_empty(self.missing)
            and qe.is_empty(self.duplicated)
        )


@dataclass(frozen=True)
class MinimalityReport:
    entries: tuple[MinimalityEntry, ...]

    @property
    def all_equal(self) -> bool:
        return all(e.equal for e in self.entries)

    def discrepancies(self) -> list[MinimalityEntry]:
        return [e for e in self.entries if not e.equal]


def verify_minimality(d: PrimaryDecomposition) -> MinimalityReport:
    """Compare the base socle with the direct sum of component socles.

    Advisory diagnostic: the canonical components can acquire socle elements
    at closed ends of strata the base lacks, so inequality here does not
    invalidate the decomposition.
    """
    comp_tables = {
        tau: socle_table(comp.interval) for tau, comp in d.components.items()
    }
    out: list[MinimalityEntry] = []
    n = d.base.dim
    for tau in all_faces(n):
        for sigma in all_faces(n):
            if not tau.coords <= sigma.coords:
                continue
            base_cosets = d.table.entry(tau, sigma).cosets
            qdim = base_cosets.dim
            total = qe.empty(qdim)
            duplicated = qe.empty(qdim)
            for ctable in comp_tables.values():
                part = ctable.entry(tau, sigma).cosets
                duplicated = qe.union(duplicated, qe.intersect(total, part))
                total = qe.union(total, part)
            extra = qe.difference(total, base_cosets)
            missing = qe.difference(base_cosets, total)
            if (
                qe.is_empty(extra)
                and qe.is_empty(missing)
                and qe.is_empty(duplicated)
                and qe.is_empty(base_cosets)
            ):
                continue
            out.append(
                MinimalityEntry(
                    tau,
                    sigma,
                    qe.canonicalize(extra),
                    qe.canonicalize(missing),
                    qe.canonicalize(duplicated),
                )
            )
    return MinimalityReport(tuple(out))


@dataclass(frozen=True)
class FringePresentation:
    upset: Upset
    hull: tuple[Downset, ...]
    scalars: tuple[int, ...]  # one connected component map per hull summand
    validation: bool


def fringe_presentation(i: Downset | Interval) -> FringePresentation:
    """Present the interval as the image of its upset inside the downward
    closures of its primary components; each component map is the indicator
    inclusion with scalar one.  ``validation`` records the exact check that
    the upset meets the hull union in the original interval."""
    decomposition = primary_decomposition(i)
    iv = decomposition.base
    hull = tuple(
        decomposition.components[tau].hull
        for tau in sorted(decomposition.components, key=Face.sort_key)
    )
    covered = qe.union(qe.empty(iv.dim), *(d.carrier for d in hull))
    validation = qe.equals(qe.intersect(iv.upset.carrier, covered), iv.carrier)
    return FringePresentation(iv.upset, hull, tuple(1 for _ in hull), validation)
