"""Exact rational linear set algebra and quantifier elimination.

A :class:`PLSet` is a finite union of convex :class:`Cell`s, each cell the
intersection of finitely many open or closed rational half-spaces.  All set
predicates (emptiness, containment, equality) reduce to Fourier-Motzkin
elimination over the rationals, which is sound and complete for linear
constraints with mixed strictness, so every operation here is exact and
decidable.  Equality of sets is always extensional: two PLSets are equal iff
their symmetric difference is empty, never by comparing syntax.

Strictness bookkeeping is structural throughout: combining a strict
inequality with any other yields a strict one; combining two non-strict
inequalities stays non-strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import CellLimitExceeded, DimensionMismatch, StaircaseError
from .rationals import Rat, Vec, dot, frac, vec

# Guard against runaway disjunctive-normal-form expansion.  The engine is
# meant for small ambient dimension and modest cell counts; anything that
# would blow past this bound raises instead of thrashing.
DEFAULT_CELL_LIMIT = 200_000
_cell_limit = DEFAULT_CELL_LIMIT


def set_cell_limit(limit: int) -> None:
    global _cell_limit
    if limit < 1:
        raise ValueError("cell limit must be positive")
    _cell_limit = limit


def get_cell_limit() -> int:
    return _cell_limit


def _check_budget(count: int, where: str) -> None:
    if count > _cell_limit:
        raise CellLimitExceeded(
            f"{where}: intermediate cell count {count} exceeds limit {_cell_limit}"
        )


# ---------------------------------------------------------------------------
# Half-spaces


@dataclass(frozen=True)
class HalfSpace:
    """``{x : normal . x < offset}`` when strict, ``<=`` otherwise.

    A zero normal is the canonical TRUE/FALSE constraint; the sign of the
    offset decides which.
    """

    normal: Vec
    offset: Fraction
    strict: bool = False

    def __post_init__(self) -> None:
        normal = self.normal if isinstance(self.normal, tuple) else tuple(self.normal)
        if not all(type(x) is Fraction for x in normal):
            normal = vec(normal)
        object.__setattr__(self, "normal", normal)
        if type(self.offset) is not Fraction:
            object.__setattr__(self, "offset", frac(self.offset))

    @property
    def dim(self) -> int:
        return len(self.normal)

    def holds(self, point: Sequence[Fraction]) -> bool:
        value = dot(self.normal, point)
        return value < self.offset if self.strict else value <= self.offset

    def is_zero_normal(self) -> bool:
        return not any(self.normal)

    def constant_truth(self) -> bool:
        """Truth value of a zero-normal constraint."""
        return (0 < self.offset) if self.strict else (0 <= self.offset)

    def negated(self) -> "HalfSpace":
        """Complementary half-space; strictness flips."""
        cached = self.__dict__.get("_neg")
        if cached is None:
            cached = HalfSpace(
                tuple(-c for c in self.normal), -self.offset, not self.strict
            )
            object.__setattr__(self, "_neg", cached)
        return cached

    def relaxed(self) -> "HalfSpace":
        return self if not self.strict else HalfSpace(self.normal, self.offset, False)

    def strictened(self) -> "HalfSpace":
        return self if self.strict else HalfSpace(self.normal, self.offset, True)

    def reflected(self) -> "HalfSpace":
        """Constraint satisfied by ``-x`` exactly when ``self`` holds at ``x``."""
        return HalfSpace(vec(-c for c in self.normal), self.offset, self.strict)

    def key(self) -> tuple:
        """Canonical scaled form: primitive integer normal, exact offset.

        The positive scale making the normal primitive is unique, so two
        half-spaces get the same key iff they denote the same set of points.
        Cached on first use; the dataclass is frozen so this is safe.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        scale = 1
        for c in self.normal:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        ints = [int(c * scale) for c in self.normal]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
            scale = Fraction(scale, g)
        off = self.offset * scale
        key = (tuple(ints), (off.numerator, off.denominator), self.strict)
        object.__setattr__(self, "_key", key)
        return key


def halfspace(normal: Iterable[Rat], offset: Rat, strict: bool = False) -> HalfSpace:
    return HalfSpace(vec(normal), frac(offset), strict)


def _normalize_constraints(
    constraints: Iterable[HalfSpace],
) -> tuple[HalfSpace, ...] | None:
    """Drop trivial constraints, dedup, keep the tightest of parallel bounds.

    Works on the canonical keys alone.  Returns ``None`` when a constant
    contradiction makes the cell empty.
    """
    by_normal: dict[tuple, tuple[int, int, bool, HalfSpace]] = {}
    for h in constraints:
        nk, (p, q), strict = h.key()
        if not any(nk):
            if not h.constant_truth():
                return None
            continue
        prev = by_normal.get(nk)
        if prev is None:
            by_normal[nk] = (p, q, strict, h)
        else:
            pp, pq, pstrict, _ = prev
            # Smaller offset p/q is tighter (denominators are positive); on
            # ties a strict bound wins.
            if p * pq < pp * q or (p * pq == pp * q and strict and not pstrict):
                by_normal[nk] = (p, q, strict, h)
    return tuple(entry[3] for entry in by_normal.values())


# ---------------------------------------------------------------------------
# Cells


@dataclass(frozen=True)
class Cell:
    """Conjunction (intersection) of half-spaces; no constraints means R^n."""

    dim: int
    constraints: tuple[HalfSpace, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for h in self.constraints:
            if h.dim != self.dim:
                raise DimensionMismatch(
                    f"constraint of dimension {h.dim} in cell of dimension {self.dim}"
                )

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point of dimension {len(point)} in cell of dimension {self.dim}"
            )
        return all(h.holds(point) for h in self.constraints)

    def reflected(self) -> "Cell":
        """The cell ``{-x : x in self}``; constraint order is kept."""
        return Cell(self.dim, tuple(h.reflected() for h in self.constraints))

    def key(self) -> tuple:
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (self.dim, frozenset(h.key() for h in self.constraints))
            object.__setattr__(self, "_key", cached)
        return cached


def cell(dim: int, *constraints: HalfSpace) -> Cell:
    return Cell(dim, tuple(constraints))


# Fourier-Motzkin --------------------------------------------------------


def _fm_step(constraints: Sequence[HalfSpace], j: int) -> tuple[HalfSpace, ...] | None:
    """Project out variable ``j`` from a conjunction.  ``None`` means empty."""
    lows: list[HalfSpace] = []
    ups: list[HalfSpace] = []
    rest: list[HalfSpace] = []
    for h in constraints:
        c = h.normal[j]
        if c > 0:
            ups.append(h)
        elif c < 0:
            lows.append(h)
        else:
            rest.append(h)
    out = rest
    for lo in lows:
        a = -lo.normal[j]  # positive
        for up in ups:
            b = up.normal[j]  # positive
            normal = tuple(b * lc + a * uc for lc, uc in zip(lo.normal, up.normal))
            offset = b * lo.offset + a * up.offset
            out.append(HalfSpace(normal, offset, lo.strict or up.strict))
    return _normalize_constraints(out)


def _eliminate_vars(
    constraints: Sequence[HalfSpace], idxs: Iterable[int]
) -> tuple[HalfSpace, ...] | None:
    """Existentially project out all variables in ``idxs``.  ``None`` = empty."""
    current = _normalize_constraints(constraints)
    if current is None:
        return None
    remaining = set(idxs)
    while remaining:
        # Pick the variable minimizing the number of new combinations.
        best_j, best_cost = -1, None
        for j in remaining:
            lo = sum(1 for h in current if h.normal[j] < 0)
            up = sum(1 for h in current if h.normal[j] > 0)
            cost = lo * up - lo - up
            if best_cost is None or cost < best_cost:
                best_j, best_cost = j, cost
        remaining.discard(best_j)
        current = _fm_step(current, best_j)
        if current is None:
            return None
    return current


_empty_cache: dict[tuple, bool] = {}
_EMPTY_CACHE_LIMIT = 300_000


def clear_caches() -> None:
    _empty_cache.clear()


def is_empty_cell(c: Cell) -> bool:
    """True iff no rational (equivalently real) point satisfies the cell."""
    norm = _normalize_constraints(c.constraints)
    if norm is None:
        return True
    key = (c.dim, frozenset(h.key() for h in norm))
    hit = _empty_cache.get(key)
    if hit is not None:
        return hit
    used = {j for h in norm for j in range(c.dim) if h.normal[j] != 0}
    result = _eliminate_vars(norm, used) is None
    if len(_empty_cache) >= _EMPTY_CACHE_LIMIT:
        _empty_cache.clear()
    _empty_cache[key] = result
    return result


def witness_cell(c: Cell) -> Vec | None:
    """An exact rational point of the cell, or ``None`` when empty.

    Eliminates variables one at a time and back-substitutes, choosing a
    rational value strictly inside the feasible interval at each level.
    """
    norm = _normalize_constraints(c.constraints)
    if norm is None:
        return None
    systems: list[tuple[HalfSpace, ...]] = [norm]
    current: tuple[HalfSpace, ...] | None = norm
    for j in range(c.dim):
        current = _fm_step(current, j)
        if current is None:
            return None
        systems.append(current)
    values: list[Fraction] = [Fraction(0)] * c.dim
    for j in reversed(range(c.dim)):
        system = systems[j]
        lo: tuple[Fraction, bool] | None = None  # (value, strict)
        hi: tuple[Fraction, bool] | None = None
        for h in system:
            cj = h.normal[j]
            if cj == 0:
                continue
            rest = sum(
                (h.normal[k] * values[k] for k in range(j + 1, c.dim)), Fraction(0)
            )
            bound = (h.offset - rest) / cj
            if cj > 0:
                if hi is None or (bound, not h.strict) < (hi[0], not hi[1]):
                    hi = (bound, h.strict)
            else:
                if lo is None or (bound, h.strict) > (lo[0], lo[1]):
                    lo = (bound, h.strict)
        if lo is None and hi is None:
            values[j] = Fraction(0)
        elif lo is None:
            values[j] = hi[0] - 1
        elif hi is None:
            values[j] = lo[0] + 1
        else:
            if lo[0] == hi[0]:
                if lo[1] or hi[1]:
                    raise StaircaseError("witness extraction hit an empty interval")
                values[j] = lo[0]
            else:
                values[j] = (lo[0] + hi[0]) / 2
    point = tuple(values)
    if not c.contains(point):
        raise StaircaseError("witness extraction produced an invalid point")
    return point


# ---------------------------------------------------------------------------
# PL sets


@dataclass(frozen=True)
class PLSet:
    """Finite union of cells; the empty cell list denotes the empty set."""

    dim: int
    cells: tuple[Cell, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        for c in self.cells:
            if c.dim != self.dim:
                raise DimensionMismatch(
                    f"cell of dimension {c.dim} in PL set of dimension {self.dim}"
                )

    def contains(self, point: Sequence[Fraction]) -> bool:
        pt = vec(point)
        return any(c.contains(pt) for c in self.cells)


def plset(dim: int, *cells_: Cell) -> PLSet:
    return PLSet(dim, tuple(cells_))


def universe(dim: int) -> PLSet:
    return PLSet(dim, (Cell(dim),))


def empty(dim: int) -> PLSet:
    return PLSet(dim, ())


def point_set(point: Iterable[Rat]) -> PLSet:
    p = vec(point)
    n = len(p)
    cons = []
    for i in range(n):
        e = tuple(Fraction(1 if k == i else 0) for k in range(n))
        cons.append(HalfSpace(e, p[i], False))
        cons.append(HalfSpace(tuple(-c for c in e), -p[i], False))
    return PLSet(n, (Cell(n, tuple(cons)),))


def _require_same_dim(*sets: PLSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands of different dimensions: {sorted(dims)}")
    return dims.pop()


def is_empty(s: PLSet) -> bool:
    return all(is_empty_cell(c) for c in s.cells)


def witness(s: PLSet) -> Vec | None:
    for c in s.cells:
        w = witness_cell(c)
        if w is not None:
            return w
    return None


# Light structural cleanup: normalize constraints, drop empty cells, dedup,
# and drop cells syntactically contained in another (more constraints =
# smaller).  This is the one place where the boolean operations normalize
# and emptiness-check the cells they build.
def _light_cleanup(dim: int, cells_: Iterable[Cell]) -> tuple[Cell, ...]:
    seen: dict[tuple, Cell] = {}
    for c in cells_:
        norm = _normalize_constraints(c.constraints)
        if norm is None:
            continue
        cc = Cell(dim, norm)
        if is_empty_cell(cc):
            continue
        seen.setdefault(cc.key(), cc)
    items = list(seen.values())
    keysets = [c.key()[1] for c in items]
    keep: list[Cell] = []
    for i, c in enumerate(items):
        absorbed = False
        for j, other in enumerate(items):
            if i == j:
                continue
            if keysets[j] < keysets[i] or (keysets[j] == keysets[i] and j < i):
                absorbed = True
                break
        if not absorbed:
            keep.append(c)
    return tuple(keep)


def _cell_subset_of_cell(a: Cell, b: Cell) -> bool:
    return all(is_empty_cell(Cell(a.dim, a.constraints + (h.negated(),)))
               for h in b.constraints)


def _drop_redundant_constraints(c: Cell) -> Cell:
    cons = list(c.constraints)
    changed = True
    while changed:
        changed = False
        for i in range(len(cons)):
            others = cons[:i] + cons[i + 1:]
            test = Cell(c.dim, tuple(others) + (cons[i].negated(),))
            if is_empty_cell(test):
                cons = others
                changed = True
                break
    return Cell(c.dim, tuple(cons))


# Cell count up to which canonicalize runs its pairwise absorb loop, which
# is quadratic in the cell count.
_ABSORB_LIMIT = 24


def canonicalize(s: PLSet) -> PLSet:
    """Cleanup pass: drop empty cells, prune redundant constraints, absorb
    cells contained in other single cells.  Purely extensional: the denoted
    set never changes.

    The absorb loop pays for itself: with it switched off, decomposing the
    seeded corpus (``random_downset`` n=2 seeds 0-99 and n=3 seeds
    10000-10024) took 54 s instead of 22 s on a 2-vCPU machine."""
    if s.__dict__.get("_canonical_deep"):
        return s
    cells_ = _light_cleanup(s.dim, s.cells)
    cells_ = tuple(_drop_redundant_constraints(c) for c in cells_)
    cells_ = _light_cleanup(s.dim, cells_)
    if len(cells_) <= _ABSORB_LIMIT:
        kept: list[Cell] = []
        for i, c in enumerate(cells_):
            absorbed = False
            for j, other in enumerate(cells_):
                if i == j:
                    continue
                if _cell_subset_of_cell(c, other):
                    # ties (mutual containment) resolved by index
                    if not (_cell_subset_of_cell(other, c) and j > i):
                        absorbed = True
                        break
            if not absorbed:
                kept.append(c)
        cells_ = tuple(kept)
    result = PLSet(s.dim, cells_)
    object.__setattr__(result, "_canonical_deep", True)
    return result


def condense(s: PLSet) -> PLSet:
    """The cleanup applied at choke points: :func:`canonicalize`.

    The name stays because the benchmark's traced run counts calls under
    ``qe.condense``.  A covering pass that drops every cell covered by the
    union of the others does not pay here, since the difference sweep
    leaves the pieces a subtrahend misses unsplit: with that pass,
    decomposing the seeded corpus (as in :func:`canonicalize`) took 34 s
    instead of 22 s on a 2-vCPU machine."""
    return canonicalize(s)


# Boolean operations -----------------------------------------------------


def union(*sets: PLSet) -> PLSet:
    dim = _require_same_dim(*sets)
    cells_: list[Cell] = []
    for s in sets:
        cells_.extend(s.cells)
    _check_budget(len(cells_), "union")
    return PLSet(dim, _light_cleanup(dim, cells_))


def intersect(s: PLSet, t: PLSet) -> PLSet:
    dim = _require_same_dim(s, t)
    _check_budget(len(s.cells) * max(1, len(t.cells)), "intersect")
    out = [Cell(dim, a.constraints + b.constraints) for a in s.cells for b in t.cells]
    return PLSet(dim, _light_cleanup(dim, out))


def _subtract_cells(
    dim: int, pieces: list[Cell], cells_: Sequence[Cell], where: str
) -> list[Cell]:
    """Subtract ``cells_`` from ``pieces`` cell by cell; stop once empty.

    A piece ``p`` that ``b`` misses passes unchanged; otherwise ``p \\ b``
    is covered by the cells ``p and not-h`` for the constraints ``h`` of
    ``b``.  The budget counts the pieces passed on and these candidates
    before the cleanup drops the empty ones."""
    for b in cells_:
        nxt: list[Cell] = []
        for p in pieces:
            if is_empty_cell(Cell(dim, p.constraints + b.constraints)):
                nxt.append(p)
            else:
                nxt.extend(Cell(dim, p.constraints + (h.negated(),))
                           for h in b.constraints)
        _check_budget(len(nxt), where)
        pieces = list(_light_cleanup(dim, nxt))
        if not pieces:
            break
    return pieces


def difference(s: PLSet, t: PLSet) -> PLSet:
    dim = _require_same_dim(s, t)
    pieces = list(_light_cleanup(dim, s.cells))
    return PLSet(dim, tuple(_subtract_cells(dim, pieces, t.cells, "difference")))


def complement(s: PLSet) -> PLSet:
    return difference(universe(s.dim), s)


def symmetric_difference(s: PLSet, t: PLSet) -> PLSet:
    return union(difference(s, t), difference(t, s))


def difference_witness(s: PLSet, t: PLSet) -> Vec | None:
    """A rational point of ``s \\ t``, or ``None`` when ``s`` is a subset."""
    dim = _require_same_dim(s, t)
    for a in _light_cleanup(dim, s.cells):
        pieces = _subtract_cells(dim, [a], t.cells, "difference_witness")
        if pieces:
            w = witness_cell(pieces[0])
            if w is None:
                raise StaircaseError("nonempty difference piece without witness")
            return w
    return None


def is_subset(s: PLSet, t: PLSet) -> bool:
    if s.dim == t.dim and set(s.cells) <= set(t.cells):
        return True
    return difference_witness(s, t) is None


def equals(s: PLSet, t: PLSet) -> bool:
    return is_subset(s, t) and is_subset(t, s)


# Projection / closure / reflection / Minkowski sums ---------------------


def _delete_coords(v: Vec, coords: frozenset[int]) -> Vec:
    return tuple(x for i, x in enumerate(v) if i not in coords)


def exists(s: PLSet, coords: Iterable[int]) -> PLSet:
    """Existential projection keeping the ambient dimension (a cylinder)."""
    idxs = frozenset(coords)
    if not idxs <= set(range(s.dim)):
        raise DimensionMismatch(f"coordinates {sorted(idxs)} out of range for n={s.dim}")
    out: list[Cell] = []
    for c in s.cells:
        cons = _eliminate_vars(c.constraints, idxs)
        if cons is not None:
            out.append(Cell(s.dim, cons))
    return PLSet(s.dim, _light_cleanup(s.dim, out))


def eliminate(s: PLSet, coords: Iterable[int]) -> PLSet:
    """Image of ``s`` under deletion of the listed coordinates."""
    idxs = frozenset(coords)
    cyl = exists(s, idxs)
    new_dim = s.dim - len(idxs)
    out: list[Cell] = []
    for c in cyl.cells:
        cons = tuple(
            HalfSpace(_delete_coords(h.normal, idxs), h.offset, h.strict)
            for h in c.constraints
        )
        out.append(Cell(new_dim, cons))
    return PLSet(new_dim, _light_cleanup(new_dim, out))


def closure(s: PLSet) -> PLSet:
    """Topological closure.

    Relaxing every strict constraint of a nonempty cell yields exactly its
    closure: the relaxed cell is closed and contains the cell, and any point
    of it is a limit of the segment toward an interior witness, since each
    strict constraint stays strict along that segment.  Empty cells are
    dropped before relaxing, so the argument applies cell by cell; the later
    cleanup cannot do this, since relaxing can make an empty cell nonempty
    (``{x < 0, x > 0}`` relaxes to ``{0}``).
    """
    out: list[Cell] = []
    for c in s.cells:
        if is_empty_cell(c):
            continue
        out.append(Cell(s.dim, tuple(h.relaxed() for h in c.constraints)))
    return PLSet(s.dim, _light_cleanup(s.dim, out))


def reflect(s: PLSet) -> PLSet:
    """The pointwise negation ``{-x : x in s}``."""
    return PLSet(s.dim, tuple(c.reflected() for c in s.cells))


def minkowski(s: PLSet, k: Cell | PLSet) -> PLSet:
    """Minkowski sum ``{x + y : x in s, y in k}``.

    Realized by doubling the ambient dimension (result coordinates ``z``,
    summand coordinates ``x``), constraining ``x in s`` and ``z - x in k``,
    then eliminating ``x``.
    """
    kcells = (k,) if isinstance(k, Cell) else k.cells
    kdim = k.dim
    if kdim != s.dim:
        raise DimensionMismatch(f"minkowski of dimensions {s.dim} and {kdim}")
    n = s.dim
    zero = tuple(Fraction(0) for _ in range(n))
    out: list[Cell] = []
    for a in s.cells:
        for b in kcells:
            cons: list[HalfSpace] = []
            for h in a.constraints:  # x in a
                cons.append(HalfSpace(zero + h.normal, h.offset, h.strict))
            for h in b.constraints:  # z - x in b
                cons.append(
                    HalfSpace(h.normal + tuple(-c for c in h.normal), h.offset, h.strict)
                )
            reduced = _eliminate_vars(cons, range(n, 2 * n))
            if reduced is None:
                continue
            trimmed = tuple(
                HalfSpace(h.normal[:n], h.offset, h.strict) for h in reduced
            )
            out.append(Cell(n, trimmed))
    return PLSet(n, _light_cleanup(n, out))


def directional_limit_member(s: PLSet, a: Iterable[Rat], v: Iterable[Rat]) -> bool:
    """True iff ``a + eps*v`` lies in ``s`` for all sufficiently small eps > 0.

    Tested cell by cell; each convex cell meets the open ray in an interval,
    so if the union contains an initial segment then, by pigeonhole, some
    single cell already does.  Per constraint ``l.x {<,<=} c`` the initial
    segment lies inside iff ``l.a < c``, or ``l.a = c`` and ``l.v < 0``, or
    ``l.a = c``, ``l.v = 0`` and the constraint is non-strict.
    """
    av = vec(a)
    dv = vec(v)
    if len(av) != s.dim or len(dv) != s.dim:
        raise DimensionMismatch("point/direction dimension mismatch")
    if all(c == 0 for c in dv):
        raise StaircaseError("direction must be nonzero; use membership instead")

    def cell_ok(c: Cell) -> bool:
        for h in c.constraints:
            la = dot(h.normal, av)
            if la < h.offset:
                continue
            if la > h.offset:
                return False
            lv = dot(h.normal, dv)
            if lv < 0:
                continue
            if lv == 0 and not h.strict:
                continue
            return False
        return True

    return any(cell_ok(c) for c in s.cells)
