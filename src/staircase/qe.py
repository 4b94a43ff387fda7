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

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Sequence

from .errors import CellLimitExceeded, DimensionMismatch, StaircaseError
from .rationals import HalfSpace, Rat, Vec, int_row, reduce_row, scaled, vec

# Guard against runaway disjunctive-normal-form expansion and Fourier-Motzkin
# growth.  The engine is meant for small ambient dimension and modest cell
# counts; anything that would blow past this bound raises instead of thrashing.
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
        raise CellLimitExceeded(f"{where}: size {count} exceeds the cell limit {_cell_limit}")


# ---------------------------------------------------------------------------
# Half-spaces


def halfspace(normal: Iterable[Rat], offset: Rat, strict: bool = False) -> HalfSpace:
    return HalfSpace(tuple(normal), offset, strict)


def _normalize_constraints(
    constraints: Iterable[HalfSpace], by_normal: dict[tuple[int, ...], HalfSpace] | None = None
) -> tuple[HalfSpace, ...] | None:
    """Drop trivial constraints, dedup, keep the tightest of parallel bounds.

    Returns ``None`` when a constant contradiction makes the cell empty.
    ``by_normal`` is the row index of the cell being built (normalized rows
    without the false row, by normal); the result is its rows followed by
    ``constraints``, normalized into it.  An FM step passes none.
    """
    if by_normal is None:
        by_normal = {}
    for h in constraints:
        if not any(h.normal):
            if not h.constant_truth():
                return None
            continue
        prev = by_normal.get(h.normal)
        if prev is None:
            by_normal[h.normal] = h
            continue
        # Smaller offset is tighter; on ties a strict bound wins.
        lhs, rhs = h.num * prev.den, prev.num * h.den
        if lhs < rhs or (lhs == rhs and h.strict and not prev.strict):
            by_normal[h.normal] = h
    return tuple(by_normal.values())


# ---------------------------------------------------------------------------
# Cells


def _false_row(dim: int) -> HalfSpace:
    """The canonical false row ``0 <= -1``, the one row of an empty-by-constants cell."""
    return int_row((0,) * dim, -1, 1, False)


@dataclass(frozen=True)
class Cell:
    """Conjunction (intersection) of half-spaces; no constraints means R^n.

    The constructor normalizes the rows once (:func:`_normalize_constraints`):
    no trivially true rows, no duplicates, only the tightest of parallel
    bounds.  A constant contradiction is stored as the one canonical false
    row ``0 <= -1``.  The rows indexed by normal, ``_rows``, the frozen set
    of the rows, ``rowset``, and its hash with ``dim`` are stored when the
    cell is built, and a cell compares and hashes by ``dim`` and ``rowset``:
    two cells are equal when they have the same rows in any order, so a cell
    is its own cache key.  The universe cell has no rows in every dimension,
    so ``dim`` is part of that key."""

    dim: int
    constraints: tuple[HalfSpace, ...] = field(default=(), compare=False)
    rowset: frozenset[HalfSpace] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._build({}, tuple(self.constraints))

    def _build(self, rows: dict[tuple[int, ...], HalfSpace], extra: Sequence[HalfSpace]) -> None:
        """Set the cell's rows: those of the index ``rows`` followed by
        ``extra``, which is checked for dimension and normalized into
        ``rows``; ``rows`` becomes the cell's index ``_rows``.  A
        contradiction, or the false cell's index in ``rows``, leaves the one
        false row."""
        for h in extra:
            if len(h.normal) != self.dim:
                raise DimensionMismatch(
                    f"constraint of dimension {h.dim} in cell of dimension {self.dim}"
                )
        if len(rows) == 1 and not any(next(iter(rows))):  # the false cell's row
            norm = None
        else:
            norm = _normalize_constraints(extra, rows)
        if norm is None:
            false = _false_row(self.dim)
            rows, norm = {false.normal: false}, (false,)
        rowset = frozenset(norm)
        self.__dict__.update(constraints=norm, rowset=rowset, _rows=rows,
                             _hash=hash((self.dim, rowset)))

    def __hash__(self) -> int:
        return self._hash

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point of dimension {len(point)} in cell of dimension {self.dim}"
            )
        p, d = scaled(point)
        return all(h.holds_scaled(p, d) for h in self.constraints)

    def reflected(self) -> "Cell":
        """The cell ``{-x : x in self}``; constraint order is kept."""
        return Cell(self.dim, tuple(h.reflected() for h in self.constraints))

    def extended(self, extra: Sequence[HalfSpace], omit: Iterable[HalfSpace] = ()) -> "Cell":
        """``Cell(self.dim, rows + extra)``, with ``rows`` this cell's rows
        without those in ``omit``: the same ``constraints`` in the same order.

        Only the rows of ``extra`` are checked and normalized, into a copy
        of the row index.  The query cells of the difference sweep, the
        absorb and the redundant-row pass are built here: each adds a row or
        a few to a cell of a few rows."""
        rows = dict(self._rows)
        for h in omit:
            del rows[h.normal]
        out = object.__new__(Cell)
        out.__dict__["dim"] = self.dim
        out._build(rows, extra)
        return out

    def implies(self, h: HalfSpace) -> bool:
        """True when the row parallel to ``h`` is at least as tight (a smaller
        offset, or equal and strict if ``h`` is), so ``self and not h`` is empty."""
        r = self._rows.get(h.normal)
        return r is not None and (r.num * h.den, not r.strict) <= (h.num * r.den, not h.strict)

    def excludes(self, h: HalfSpace) -> bool:
        """True when the row opposite to ``h``, ``h.normal . x >= -r.offset``,
        leaves ``h`` no room, so ``self and h`` is empty."""
        r = self._rows.get(tuple(map(neg, h.normal)))
        return r is not None and (-r.num * h.den, r.strict or h.strict) > (h.num * r.den, False)


def cell(dim: int, *constraints: HalfSpace) -> Cell:
    return Cell(dim, tuple(constraints))


# Fourier-Motzkin --------------------------------------------------------


def _partition(
    constraints: Sequence[HalfSpace], j: int
) -> tuple[list[HalfSpace], list[HalfSpace], list[HalfSpace]]:
    """The rows with a negative, a positive and a zero ``x_j`` coefficient:
    the lower bounds, the upper bounds and the rest, for one Fourier-Motzkin
    step on ``x_j``.  The step's size, its rows plus the ``lows * ups``
    pairs it combines, is checked against the cell limit first."""
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
    _check_budget(len(constraints) + len(lows) * len(ups), "Fourier-Motzkin step")
    return lows, ups, rest


def _fm_step(
    constraints: Sequence[HalfSpace], j: int, ray: tuple[int, bool] | None = None
) -> tuple[HalfSpace, ...] | None:
    """Project out variable ``j`` from a conjunction.  ``None`` means empty.

    With ``ray = (sign, strict)`` it adds the ray ``t * sign * e_j``, ``t >= 0``
    (``> 0`` if strict), instead: a row whose ``x_j`` coefficient has sign
    ``-sign`` meets ``x - t * sign * e_j`` most easily at ``t = 0``, so it also
    stays (strict for an open ray); the others bound ``t`` only from below.

    The rows must come normalized, as a cell's rows do.  A step that
    combines no pair (no lower or no upper bound on ``x_j``) builds no new
    row, so its output is normalized as it stands and is returned without
    a normalizing pass; a lone false row then stays, for the caller's cell
    to catch."""
    lows, ups, out = _partition(constraints, j)
    if ray is not None:
        sign, strict = ray
        kept = lows if sign > 0 else ups
        out += [h.strictened() for h in kept] if strict else kept
    if not lows or not ups:
        return tuple(out)
    for lo in lows:
        a = -lo.normal[j]  # positive
        for up in ups:
            b = up.normal[j]  # positive
            normal = tuple(b * lc + a * uc for lc, uc in zip(lo.normal, up.normal))
            num = b * lo.num * up.den + a * up.num * lo.den
            row = reduce_row(normal, num, lo.den * up.den)
            out.append(int_row(*row, lo.strict or up.strict))
    return _normalize_constraints(out)


def _choose_var(constraints: Sequence[HalfSpace], remaining: set[int]) -> int:
    """The variable of ``remaining`` whose FM step adds the fewest rows,
    ``lo * up - lo - up`` (ties to the first in ``remaining``'s order).

    In ascending index order (as :func:`witness_cell` eliminates) the counts
    of ``scripts/work_counts.py`` stay the same, but the steps combine
    50,353 row pairs instead of 40,353 on the decompose corpus and 79,106
    instead of 29,596 on ``random_downset(s, 4, 5)``, s = 1-6 (counted at
    every step, before emptiness decided its last step without one)."""
    best_j, best_cost = -1, None
    for j in remaining:
        lo = up = 0
        for h in constraints:
            c = h.normal[j]
            if c < 0:
                lo += 1
            elif c > 0:
                up += 1
        cost = lo * up - lo - up
        if best_cost is None or cost < best_cost:
            best_j, best_cost = j, cost
    return best_j


def _eliminate_vars(constraints: Sequence[HalfSpace],
                    idxs: Iterable[int]) -> tuple[HalfSpace, ...] | None:
    """Existentially project out all variables in ``idxs``.  ``None`` = empty.

    Each step eliminates the variable :func:`_choose_var` picks.  The rows
    must come normalized, as a cell's rows do; each FM step leaves its
    output normalized.  ``_eliminate_vars(rows, used) is None`` is the
    reference that :func:`_rows_empty` is tested against."""
    current = constraints
    remaining = set(idxs)
    while remaining:
        best_j = _choose_var(current, remaining)
        remaining.discard(best_j)
        current = _fm_step(current, best_j)
        if current is None:
            return None
    return current


def _rows_empty(constraints: Sequence[HalfSpace], used: set[int]) -> bool:
    """``_eliminate_vars(constraints, used) is None`` for normalized rows
    whose variables are ``used`` (nonempty), deciding without building the
    last two steps' rows.

    It eliminates variables as :func:`_eliminate_vars` does, by the same
    :func:`_choose_var` and the same budgeted :func:`_partition`, down to
    two.  Of those, the chosen ``x_j`` is eliminated by combining each
    lower/upper pair straight into a bound ``c * x_k {<,<=} num/den`` on
    the last variable ``x_k``; a pair with ``c = 0`` is a constant row,
    decided on the spot.  The rows left that bound ``x_k`` are then
    compared, the largest lower bound with the smallest upper one,
    cross-multiplied, a strict bound winning ties: exactly the last FM step
    on the tightest pair, which is what the parallel-row dedup keeps."""
    remaining = set(used)
    while len(remaining) > 2:
        j = _choose_var(constraints, remaining)
        remaining.discard(j)
        constraints = _fm_step(constraints, j)
        if constraints is None:
            return True
    if len(remaining) == 2:
        j = _choose_var(constraints, remaining)
        remaining.discard(j)
        (k,) = remaining
        lows, ups, rest = _partition(constraints, j)
        bounds = [(h[0][k], h[1], h[2], h[3]) for h in rest]
        for lo_normal, lo_num, lo_den, lo_strict in lows:
            a = -lo_normal[j]
            lo_k = lo_normal[k]
            for up_normal, up_num, up_den, up_strict in ups:
                b = up_normal[j]
                c = b * lo_k + a * up_normal[k]
                num = b * lo_num * up_den + a * up_num * lo_den
                strict = lo_strict or up_strict
                if c:
                    bounds.append((c, num, lo_den * up_den, strict))
                elif num < 0 or (num == 0 and strict):  # a false constant row
                    return True
    else:
        (k,) = remaining
        bounds = [(h[0][k], h[1], h[2], h[3]) for h in constraints]
    # x_k >= lo_p/lo_q and x_k <= up_p/up_q, with lo_q, up_q > 0
    lo_p = lo_q = up_p = up_q = 0
    lo_strict = up_strict = False
    for c, num, den, strict in bounds:
        if c > 0:
            p, q = num, den * c
            if not up_q or p * up_q < up_p * q or (strict and p * up_q == up_p * q):
                up_p, up_q, up_strict = p, q, strict
        else:
            p, q = -num, -den * c
            if not lo_q or p * lo_q > lo_p * q or (strict and p * lo_q == lo_p * q):
                lo_p, lo_q, lo_strict = p, q, strict
    if not lo_q or not up_q:
        return False
    # the last FM step: the tightest lower and upper row and their one pair
    _check_budget(3, "Fourier-Motzkin step")
    lhs, rhs = lo_p * up_q, up_p * lo_q
    return lhs > rhs or (lhs == rhs and (lo_strict or up_strict))


# The engine table: the memos of the pure cell-level work that repeats within
# one op, keyed on ``(tag, *cells)`` (a cell is its own key, see
# :class:`Cell`): ``"empty"`` (:func:`is_empty_cell`), ``"split"`` (the split
# of a piece by a subtrahend cell in :func:`_subtract_cells`), ``"subset"``
# (:func:`_cell_subset_of_cell`), ``"reduced"``
# (:func:`_drop_redundant_constraints`) and ``"cone"`` (the sum of a cell and
# one axis cone in :func:`minkowski`).  It is cleared wholesale when it
# reaches ``_TABLE_LIMIT`` entries.  Unbounded, one op fills it to at most
# 3,261 entries on the benchmark's decompose ops, 3,427 on its verify mix and
# 11,367 on the n=4 instances ``random_downset(s, 4, 5)``, s = 1-6 (so seed 6
# clears it once), but the benchmark's membership set-up builds the
# boundaries of 125 instances with no clear in between (14,080 entries), and
# a larger bound keeps those cells alive.  Membership benchmark peak RSS on a
# 2-vCPU machine (seeds 11-13), per bound: 38.6-39.0 MB at 300,000,
# 36.2-39.7 MB at 16,384 and 34.9-35.5 MB at 8,192, against 34.6-36.0 MB
# with a 300,000-entry emptiness cache and four 512-entry memos.
_table: dict[tuple, object] = {}
_TABLE_LIMIT = 8_192


def _remember(key: tuple, value):
    """Store ``value`` under ``key`` in the engine table, clearing it first
    if it is full."""
    if len(_table) >= _TABLE_LIMIT:
        _table.clear()
    _table[key] = value
    return value


def clear_caches() -> None:
    """Empty the engine table ``_table``.  Every read of it is one ``.get``,
    so a concurrent clear never makes one fail.  The axis cells of
    ``geometry._axis_cell`` are constants and stay."""
    _table.clear()


def is_empty_cell(c: Cell) -> bool:
    """True iff no rational (equivalently real) point satisfies the cell.

    Cached in the engine table; a miss is decided by :func:`_rows_empty` on
    the cell's rows, whose FM steps pick their variables by
    :func:`_choose_var`."""
    key = ("empty", c)
    hit = _table.get(key)
    if hit is not None:
        return hit
    used = {j for h in c.constraints for j in range(c.dim) if h.normal[j] != 0}
    if used:
        return _remember(key, _rows_empty(c.constraints, used))
    # normalized rows without a variable: the canonical false row, or none
    return _remember(key, bool(c.constraints))


def witness_cell(c: Cell) -> Vec | None:
    """An exact rational point of the cell, or ``None`` when empty.

    Eliminates variables one at a time and back-substitutes, choosing a
    rational value strictly inside the feasible interval at each level.
    """
    current: tuple[HalfSpace, ...] | None = c.constraints
    if len(current) == 1 and current[0].is_zero_normal():  # the false row
        return None
    systems: list[tuple[HalfSpace, ...]] = [current]
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
            rest = sum(map(mul, h.normal[j + 1:], values[j + 1:]), Fraction(0))
            bound = (h.offset - rest) / cj
            if cj > 0:
                if hi is None or (bound, not h.strict) < (hi[0], not hi[1]):
                    hi = (bound, h.strict)
            elif lo is None or (bound, h.strict) > lo:
                lo = (bound, h.strict)
        if lo is not None and hi is not None:
            if lo[0] == hi[0] and (lo[1] or hi[1]):
                raise StaircaseError("witness extraction hit an empty interval")
            values[j] = (lo[0] + hi[0]) / 2
        elif lo is not None:
            values[j] = lo[0] + 1
        elif hi is not None:
            values[j] = hi[0] - 1
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
        if len(pt) != self.dim:
            raise DimensionMismatch(
                f"point of dimension {len(pt)} in PL set of dimension {self.dim}"
            )
        return self.contains_scaled(*scaled(pt))

    def contains_scaled(self, p: Sequence[int], d: int) -> bool:
        """``contains`` at the point ``p / d`` (integer ``p``, ``d > 0``); the
        one membership loop, for callers that scale their points once."""
        return any(all(h.holds_scaled(p, d) for h in c.constraints) for c in self.cells)


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
        e = tuple(1 if k == i else 0 for k in range(n))
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


def _light_cleanup(cells_: Iterable[Cell]) -> tuple[Cell, ...]:
    """Light structural cleanup: drop empty cells, dedup, and drop cells
    syntactically contained in another (more constraints = smaller).

    Every cell comes in normalized, since the constructor normalizes, so
    this pass normalizes nothing; it is the one place where the boolean
    operations emptiness-check the cells they build."""
    seen = tuple(dict.fromkeys(c for c in cells_ if not is_empty_cell(c)))
    rowsets = [c.rowset for c in seen]  # distinct, since deduped
    return tuple(c for c, rows in zip(seen, rowsets)
                 if not any(other < rows for other in rowsets))


def _cell_subset_of_cell(a: Cell, b: Cell) -> bool:
    """True iff ``a`` lies in ``b``.  ``a`` must be nonempty, as cells out of
    :func:`_light_cleanup` are: then a row of ``b`` that ``a`` excludes makes
    it False, and the rows of ``b`` that ``a`` implies need no FM check."""
    key = ("subset", a, b)
    hit = _table.get(key)
    if hit is not None:
        return hit
    inside = not any(a.excludes(h) for h in b.constraints) and all(
        a.implies(h) or is_empty_cell(a.extended((h.negated(),)))
        for h in b.constraints)
    return _remember(key, inside)


def _drop_redundant_constraints(c: Cell) -> Cell:
    """Drop each row implied by the others, in one forward pass.

    A row not implied by a set of rows is not implied by any subset of it,
    so a row kept once never needs checking again."""
    key = ("reduced", c)
    hit = _table.get(key)
    if hit is not None:
        return hit
    dropped: list[HalfSpace] = []
    for r in c.constraints:
        if is_empty_cell(c.extended((r.negated(),), omit=(*dropped, r))):
            dropped.append(r)
    return _remember(key, c.extended((), omit=dropped) if dropped else c)


def canonicalize(s: PLSet) -> PLSet:
    """Cleanup pass, one fixed pipeline at every size: :func:`_light_cleanup`
    (drop empty cells, dedup, syntactic absorb), drop each cell's redundant
    rows, then drop every cell contained in another single cell.  The
    denoted set never changes.

    The pairwise absorb is quadratic but has no size cutoff: with a cutoff
    at 24 cells, ``random_downset(6, 4, 5)`` did not decompose in 900 s,
    against about 7 s without one.  Decomposing and reconstructing the
    seeded corpus (``random_downset`` n=2 seeds 0-99, n=3 seeds
    10000-10024) takes 6-8 s with absorb and 17-18 s without on a 2-vCPU
    machine.  Dropping rows cannot empty a cell, and absorb covers the dedup
    and syntactic absorb of a second light cleanup, so there is none."""
    if s.__dict__.get("_canonical_deep"):
        return s
    cells_ = _light_cleanup(s.cells)
    cells_ = tuple(_drop_redundant_constraints(c) for c in cells_)
    # of two equal cells, the first is kept
    kept = tuple(c for i, c in enumerate(cells_) if not any(
        _cell_subset_of_cell(c, other) and (j < i or not _cell_subset_of_cell(other, c))
        for j, other in enumerate(cells_) if j != i))
    result = PLSet(s.dim, kept)
    object.__setattr__(result, "_canonical_deep", True)
    return result


def condense(s: PLSet) -> PLSet:
    """:func:`canonicalize` on socle degrees and the oracle's socle strata,
    and where measured to pay: the escape set of the oracle
    ``socle.min_along`` and the union in ``decompose.reconstruct``; elsewhere
    only results are canonicalized.  The name stays because the benchmark's
    traced run counts ``qe.condense``.  A covering pass (drop each cell
    covered by the union of the others) does not pay, since the difference
    sweep leaves the pieces a subtrahend misses unsplit: with it, decomposing
    the seeded corpus (as in :func:`canonicalize`) took 34 s instead of 22 s
    on a 2-vCPU machine."""
    return canonicalize(s)


# Boolean operations -----------------------------------------------------


def union(*sets: PLSet) -> PLSet:
    dim = _require_same_dim(*sets)
    cells_: list[Cell] = []
    for s in sets:
        cells_.extend(s.cells)
    _check_budget(len(cells_), "union")
    return PLSet(dim, _light_cleanup(cells_))


def intersect(s: PLSet, t: PLSet) -> PLSet:
    dim = _require_same_dim(s, t)
    _check_budget(len(s.cells) * max(1, len(t.cells)), "intersect")
    out = [Cell(dim, a.constraints + b.constraints) for a in s.cells for b in t.cells]
    return PLSet(dim, _light_cleanup(out))


def _split(p: Cell, b: Cell) -> tuple[Cell, ...]:
    """Cells covering ``p \\ b``.  The rows of ``b`` that ``p`` does not imply
    cut it; with none, ``p`` lies in ``b`` and nothing is left.  A piece that
    ``b`` misses (seen from a cut row ``p`` excludes, or by FM) is left
    unchanged; otherwise ``p \\ b`` is covered by the cells ``p and not-h``
    for the rows ``h`` of the cut."""
    cut = [h for h in b.constraints if not p.implies(h)]
    if not cut:
        return ()
    if any(p.excludes(h) for h in cut) or is_empty_cell(p.extended(cut)):
        return (p,)
    return tuple(p.extended((h.negated(),)) for h in cut)


def _subtract_cells(
    dim: int, pieces: list[Cell], cells_: Sequence[Cell], where: str
) -> list[Cell]:
    """Subtract ``cells_`` from ``pieces`` cell by cell; stop once empty.

    Each piece ``p`` is split by each cell ``b`` (:func:`_split`, memoized on
    ``p`` and ``b``).  The budget counts the pieces passed on and the
    candidates of the splits before the cleanup drops the empty ones."""
    for b in cells_:
        nxt: list[Cell] = []
        for p in pieces:
            key = ("split", p, b)
            split = _table.get(key)
            if split is None:
                split = _remember(key, _split(p, b))
            nxt.extend(split)
        _check_budget(len(nxt), where)
        pieces = list(_light_cleanup(nxt))
        if not pieces:
            break
    return pieces


def difference(s: PLSet, t: PLSet) -> PLSet:
    dim = _require_same_dim(s, t)
    pieces = list(_light_cleanup(s.cells))
    return PLSet(dim, tuple(_subtract_cells(dim, pieces, t.cells, "difference")))


def complement(s: PLSet) -> PLSet:
    return difference(universe(s.dim), s)


def symmetric_difference(s: PLSet, t: PLSet) -> PLSet:
    return union(difference(s, t), difference(t, s))


def difference_witness(s: PLSet, t: PLSet) -> Vec | None:
    """A rational point of ``s \\ t``, or ``None`` when ``s`` is a subset."""
    dim = _require_same_dim(s, t)
    for a in _light_cleanup(s.cells):
        pieces = _subtract_cells(dim, [a], t.cells, "difference_witness")
        if pieces:
            w = witness_cell(pieces[0])
            if w is None:
                raise StaircaseError("nonempty difference piece without witness")
            return w
    return None


def is_subset(s: PLSet, t: PLSet) -> bool:
    """True iff subtracting ``t`` leaves no piece of any cell of ``s``."""
    dim = _require_same_dim(s, t)
    return set(s.cells) <= set(t.cells) or not any(
        _subtract_cells(dim, [a], t.cells, "is_subset") for a in _light_cleanup(s.cells))


def equals(s: PLSet, t: PLSet) -> bool:
    return is_subset(s, t) and is_subset(t, s)


# Projection / closure / reflection / Minkowski sums ---------------------


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
    return PLSet(s.dim, _light_cleanup(out))


def eliminate(s: PLSet, coords: Iterable[int]) -> PLSet:
    """Image of ``s`` under deletion of the listed coordinates.

    The cylinder's rows are zero in those columns, and deleting zero columns
    is injective on rows, so its cells stay nonempty, distinct and
    unabsorbed: they need no second cleanup."""
    idxs = frozenset(coords)
    cyl = exists(s, idxs)
    new_dim = s.dim - len(idxs)
    out: list[Cell] = []
    for c in cyl.cells:
        out.append(Cell(new_dim, tuple(
            int_row(tuple(x for i, x in enumerate(h.normal) if i not in idxs), *h[1:])
            for h in c.constraints)))
    return PLSet(new_dim, tuple(out))


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
    return PLSet(s.dim, _light_cleanup(out))


def reflect(s: PLSet) -> PLSet:
    """The pointwise negation ``{-x : x in s}``."""
    return PLSet(s.dim, tuple(c.reflected() for c in s.cells))


def _cone_steps(b: Cell) -> list[tuple[int, tuple[int, bool] | None]] | None:
    """The :func:`_fm_step` calls ``(j, ray)`` that add the axis cone ``b``:
    none where ``y_j = 0``, a ray step on a ray, a plain step on a free axis.
    ``None`` when ``b`` is empty; a row other than ``±y_j {<,<=} 0`` raises."""
    bounds: dict[tuple[int, int], bool] = {}  # (axis, sign of the row) -> strict
    for h in b.constraints:
        axes = [j for j, c in enumerate(h.normal) if c]
        if not axes:  # the canonical false row
            return None
        if len(axes) != 1 or h.num:
            raise StaircaseError(f"Minkowski summand is not an axis cone: row {h!r}")
        bounds[axes[0], h.normal[axes[0]]] = h.strict
    steps: list[tuple[int, tuple[int, bool] | None]] = []
    for j in range(b.dim):
        lo, up = bounds.get((j, -1)), bounds.get((j, 1))  # y_j >= 0, y_j <= 0
        if lo is None and up is None:  # a line
            steps.append((j, None))
        elif up is None:
            steps.append((j, (1, lo)))
        elif lo is None:
            steps.append((j, (-1, up)))
        elif lo or up:  # y_j < 0 <= y_j or the like
            return None
    return steps


def minkowski(s: PLSet, k: Cell | PLSet) -> PLSet:
    """Minkowski sum ``{x + y : x in s, y in k}`` with a union of axis cones:
    each cell of ``k`` is a product along the axes of points, rays (open or
    closed, either way) and lines.  Each ray or line is added by one FM step
    in the n ambient variables (:func:`_cone_steps`); any other summand
    raises :class:`StaircaseError`, and an empty one adds nothing."""
    if k.dim != s.dim:
        raise DimensionMismatch(f"minkowski of dimensions {s.dim} and {k.dim}")
    cones = [(b, steps) for b in ((k,) if isinstance(k, Cell) else k.cells)
             if (steps := _cone_steps(b)) is not None]
    out: list[Cell] = []
    for a in s.cells:
        for b, steps in cones:
            key = ("cone", a, b)
            summed = _table.get(key)
            if summed is None:
                summed = _remember(key, _add_cone(a, steps))
            out.extend(summed)
    return PLSet(s.dim, _light_cleanup(out))


def _add_cone(a: Cell, steps: list[tuple[int, tuple[int, bool] | None]]) -> tuple[Cell, ...]:
    """The sum of ``a`` and the axis cone of ``steps`` (:func:`_cone_steps`):
    one cell, or none when FM finds it empty."""
    rows = a.constraints
    for j, ray in steps:
        rows = _fm_step(rows, j, ray)
        if rows is None:
            return ()
    return (Cell(a.dim, rows),)


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

    pa, d = scaled(av)
    pv, _ = scaled(dv)

    def cell_ok(c: Cell) -> bool:
        for normal, num, den, strict in c.constraints:
            # l.a - c has the sign of l.(pa) * den - num * d, as d, den > 0.
            la = sum(map(mul, normal, pa)) * den
            rhs = num * d
            if la > rhs:
                return False
            if la == rhs:
                lv = sum(map(mul, normal, pv))
                if lv > 0 or (lv == 0 and strict):
                    return False
        return True

    return any(cell_ok(c) for c in s.cells)
