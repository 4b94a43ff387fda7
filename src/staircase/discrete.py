"""Discrete backend: monomial ideals in N^n and their staircases.

The object decomposed is the monomial interval ``J = N^n minus the ideal's
exponent set``, the standard-grade analogue of the real PL downsets: its
closed cogenerators along a face generate the canonical minimal primary
decomposition and the unique irredundant irreducible decomposition.  All
quantifiers reduce to generator comparisons; box scans are exact because
every membership predicate in sight is a boolean combination of coordinate
thresholds bounded by the generator exponents, so coordinates can be clamped
to ``B + 1`` without changing any truth value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputFormatError, InternalCheckFailure, ValidationError
from .qe import _check_budget

IVec = tuple[int, ...]


def _leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(le, a, b))


def _box(lo: int, his: Sequence[int], where: str) -> Iterable[IVec]:
    """The integer points of the box ``[lo, his[0]] x ... x [lo, his[-1]]``.

    Raises ``CellLimitExceeded`` before the scan when the box has more points
    than the cell limit (``qe.set_cell_limit``)."""
    _check_budget(math.prod(h - lo + 1 for h in his), f"{where} box")
    return itertools.product(*(range(lo, h + 1) for h in his))


def _minimalize(gens: Iterable[IVec]) -> tuple[IVec, ...]:
    gens = sorted(set(tuple(g) for g in gens))
    return tuple(g for g in gens if not any(h != g and _leq(h, g) for h in gens))


@dataclass(frozen=True)
class DiscreteIdeal:
    """Monomial ideal given by finitely many exponent vectors in N^n."""

    dim: int
    generators: tuple[IVec, ...]

    def __post_init__(self) -> None:
        gens = []
        for g in self.generators:
            t = tuple(int(x) for x in g)
            if len(t) != self.dim:
                raise InputFormatError(
                    f"generator {g} has length {len(t)}, expected {self.dim}"
                )
            if any(x < 0 for x in t):
                raise InputFormatError(f"generator {g} has negative exponents")
            gens.append(t)
        object.__setattr__(self, "generators", _minimalize(gens))

    def in_ideal(self, a: Sequence[int]) -> bool:
        return any(_leq(g, a) for g in self.generators)

    def bound(self) -> IVec:
        """Componentwise maximum of the generators (zero when none)."""
        if not self.generators:
            return tuple(0 for _ in range(self.dim))
        return tuple(max(g[i] for g in self.generators) for i in range(self.dim))


@dataclass(frozen=True)
class DiscreteDownset:
    """The Z^n complement of the ideal's exponent upset.

    Membership is decided by generator comparison; the monomial interval
    ``J = D ∩ N^n`` is the part carrying the decomposition theory.
    """

    ideal: DiscreteIdeal

    @property
    def dim(self) -> int:
        return self.ideal.dim

    def contains(self, a: Sequence[int]) -> bool:
        return not self.ideal.in_ideal(a)

    def in_interval(self, a: Sequence[int]) -> bool:
        return all(x >= 0 for x in a) and not self.ideal.in_ideal(a)


def closed_cogenerators(
    d: DiscreteDownset, tau: frozenset[int] | Iterable[int]
) -> tuple[IVec, ...]:
    """Canonical representatives of the closed cogenerator cosets of the
    monomial interval along ``tau``.

    A representative satisfies: it lies in the interval, stepping up by any
    unit vector off ``tau`` leaves the interval, and no generator is below it
    on the coordinates off ``tau`` (so the whole forward ``tau``-orbit stays
    inside).  Coordinates on ``tau`` are pinned to ``B_j + 1``, inside the
    stable region; the remaining coordinates are scanned over ``[-1, B_j]``,
    which covers every possible representative.
    """
    tau = frozenset(int(t) for t in tau)
    n = d.dim
    if not tau <= set(range(n)):
        raise ValidationError(f"face {sorted(tau)} out of range for n={n}")
    bound = d.ideal.bound()
    off = sorted(set(range(n)) - tau)
    reps: list[IVec] = []
    for combo in _box(-1, [bound[j] for j in off], "closed_cogenerators"):
        a = [0] * n
        for j in tau:
            a[j] = bound[j] + 1
        for j, v in zip(off, combo):
            a[j] = v
        a_t = tuple(a)
        if not d.in_interval(a_t):
            continue
        stable = not any(
            all(g[j] <= a_t[j] for j in off) for g in d.ideal.generators
        )
        if not stable:
            continue
        annihilated = True
        for j in off:
            step = tuple(x + (1 if k == j else 0) for k, x in enumerate(a_t))
            if d.in_interval(step):
                annihilated = False
                break
        if annihilated:
            reps.append(a_t)
    return tuple(sorted(reps))


# ---------------------------------------------------------------------------
# Decompositions


@dataclass(frozen=True)
class DiscreteComponent:
    """Union over cogenerator cosets of ``(rep + Z*tau - N^n) ∩ J``."""

    ideal: DiscreteIdeal
    tau: frozenset[int]
    reps: tuple[IVec, ...]

    @property
    def dim(self) -> int:
        return self.ideal.dim

    def contains(self, a: Sequence[int]) -> bool:
        if any(x < 0 for x in a) or self.ideal.in_ideal(a):
            return False
        off = [j for j in range(self.dim) if j not in self.tau]
        return any(all(a[j] <= rep[j] for j in off) for rep in self.reps)

    def complement_ideal_generators(self) -> tuple[IVec, ...]:
        """Minimal generators of the monomial ideal ``N^n minus this set``."""
        box = _component_box(self.ideal)
        mins: list[IVec] = []
        for a in _box(0, [b + 1 for b in box], "complement_ideal_generators"):
            if self.contains(a):
                continue
            is_min = all(
                a[j] == 0 or self.contains(tuple(x - (1 if k == j else 0) for k, x in enumerate(a)))
                for j in range(self.dim)
            )
            if is_min:
                mins.append(tuple(a))
        return _minimalize(mins)


def _component_box(ideal: DiscreteIdeal) -> IVec:
    return tuple(b + 1 for b in ideal.bound())


@dataclass(frozen=True)
class DiscreteDecomposition:
    ideal: DiscreteIdeal
    components: Mapping[frozenset[int], DiscreteComponent]
    cogenerators: Mapping[frozenset[int], tuple[IVec, ...]]

    @property
    def dim(self) -> int:
        return self.ideal.dim

    def irreducible_pieces(self) -> list[tuple[frozenset[int], IVec]]:
        out = []
        for tau in sorted(self.cogenerators, key=lambda t: (len(t), sorted(t))):
            for rep in self.cogenerators[tau]:
                out.append((tau, rep))
        return out


def discrete_primary_decomposition(d: DiscreteDownset) -> DiscreteDecomposition:
    """Canonical minimal primary decomposition of the monomial interval.

    The union of the components is verified to equal the interval on a
    margin box around the staircase, which decides the identity exactly.
    """
    n = d.dim
    cogens: dict[frozenset[int], tuple[IVec, ...]] = {}
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            tau = frozenset(combo)
            reps = closed_cogenerators(d, tau)
            if reps:
                cogens[tau] = reps
    components = {
        tau: DiscreteComponent(d.ideal, tau, reps) for tau, reps in cogens.items()
    }
    bound = d.ideal.bound()
    # Coordinates above B+1 are equivalent to B+1 for every predicate
    # involved, and both sides are empty off N^n, so this scan over
    # [-2, B+2]^n decides the identity over all of Z^n.
    for a in _box(-2, [b + 2 for b in bound], "discrete_primary_decomposition"):
        lhs = d.in_interval(a)
        rhs = any(c.contains(a) for c in components.values())
        if lhs != rhs:
            raise InternalCheckFailure(
                f"discrete primary union mismatch at {a}: interval={lhs} union={rhs}"
            )
    return DiscreteDecomposition(d.ideal, components, cogens)


def discrete_irreducible_decomposition(
    d: DiscreteDownset,
) -> list[tuple[frozenset[int], IVec]]:
    return discrete_primary_decomposition(d).irreducible_pieces()


def is_irredundant(d: DiscreteDownset, pieces: Sequence[tuple[frozenset[int], IVec]]) -> bool:
    """Each irreducible piece contains an interval point no other piece has."""
    bound = d.ideal.bound()
    comps = [DiscreteComponent(d.ideal, tau, (rep,)) for tau, rep in pieces]
    for i, comp in enumerate(comps):
        found = False
        for a in _box(0, [b + 1 for b in bound], "is_irredundant"):
            if not comp.contains(a):
                continue
            if not any(other.contains(a) for j, other in enumerate(comps) if j != i):
                found = True
                break
        if not found:
            return False
    return True


def component_cogenerators(
    member: Callable[[Sequence[int]], bool],
    dim: int,
    bound: IVec,
    tau: frozenset[int],
) -> tuple[IVec, ...]:
    """Oracle route: closed cogenerator classes of an arbitrary
    box-determined discrete set, keyed by their off-``tau`` coordinates.

    Probes membership pointwise with no generator arithmetic, so it checks
    :func:`closed_cogenerators` independently.  ``member`` must be a boolean
    combination of coordinate thresholds not exceeding ``bound``; clamping
    to ``bound + 2`` is then exact, so the persistence check along ``tau``
    only needs the corners of a finite box.
    """
    off = sorted(set(range(dim)) - tau)
    tau_sorted = sorted(tau)
    classes: dict[IVec, IVec] = {}
    for combo in _box(-1, [bound[j] + 1 for j in off], "component_cogenerators"):
        a = [0] * dim
        for j in tau:
            a[j] = bound[j] + 2
        for j, v in zip(off, combo):
            a[j] = v
        a_t = tuple(a)
        if not member(a_t):
            continue
        if any(
            member(tuple(x + (1 if k == j else 0) for k, x in enumerate(a_t)))
            for j in off
        ):
            continue
        stable = True
        for steps in _box(0, [bound[j] + 2 for j in tau_sorted], "component_cogenerators"):
            b = list(a_t)
            for j, s in zip(tau_sorted, steps):
                b[j] += s
            if not member(tuple(b)):
                stable = False
                break
        if stable:
            classes.setdefault(tuple(a_t[j] for j in off), a_t)
    return tuple(sorted(classes.values()))


def socle_isomorphism_check(
    d: DiscreteDownset, decomposition: DiscreteDecomposition
) -> bool:
    """Closed cogenerator class multisets of the base must equal the
    disjoint union of the components' classes, face by face."""
    n = d.dim
    bound = _component_box(d.ideal)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            tau = frozenset(combo)
            off = sorted(set(range(n)) - tau)
            base = sorted(
                tuple(r[j] for j in off) for r in closed_cogenerators(d, tau)
            )
            pooled: list[IVec] = []
            for comp in decomposition.components.values():
                for rep in component_cogenerators(
                    comp.contains, n, bound, tau
                ):
                    pooled.append(tuple(rep[j] for j in off))
            if base != sorted(pooled):
                return False
    return True
