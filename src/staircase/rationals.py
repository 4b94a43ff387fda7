"""Exact rational scalars, vectors and half-spaces.

Every coordinate in the engine is a ``fractions.Fraction``.  A half-space
(:class:`HalfSpace`) is all ints: a primitive integer normal and a reduced
integer offset pair ``num/den``, so the engine's hot paths (Fourier-Motzkin,
cell keys, membership) compare integer cross-products and build no
``Fraction``.  Floats are rejected wherever user data enters, so all
predicates downstream stay decidable.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch, InputFormatError

Rat = Union[int, str, Fraction]
Vec = tuple[Fraction, ...]


def frac(x: Rat) -> Fraction:
    """Coerce ``x`` to an exact rational.  Floats are refused."""
    if isinstance(x, bool):
        raise InputFormatError(f"expected a rational number, got bool {x!r}")
    if isinstance(x, float):
        raise InputFormatError(
            f"floating-point value {x!r} rejected: the engine is exact-rational only"
        )
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"cannot parse rational {x!r}: {exc}") from exc
    raise InputFormatError(f"cannot interpret {x!r} as a rational number")


def vec(xs: Iterable[Rat]) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(u: Sequence[int | Fraction], v: Sequence[int | Fraction]) -> Fraction:
    """Exact dot product of int or ``Fraction`` entries.

    Sums one unreduced numerator/denominator pair over the nonzero terms and
    builds a single ``Fraction`` at the end: every ``int * Fraction`` step
    would cost as much as a ``Fraction`` one.
    """
    if len(u) != len(v):
        raise ValueError(f"dot of vectors with lengths {len(u)} != {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            d = a.denominator * b.denominator
            num = num * d + a.numerator * b.numerator * den
            den *= d
    return Fraction(num, den)


def format_rational(x: Fraction) -> int | str:
    """Render for JSON: plain int when integral, else ``"p/q"``."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(obj: object) -> Fraction:
    """Parse a JSON scalar (int or ``"p/q"`` string) into a Fraction."""
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return frac(obj)
    raise InputFormatError(
        f"rationals must be integers or 'p/q' strings, got {type(obj).__name__}: {obj!r}"
    )


# Half-spaces --------------------------------------------------------------


class HalfSpace(namedtuple("_Row", "normal num den strict")):
    """``{x : normal . x < offset}`` when strict, ``<=`` otherwise.

    Stored in canonical form, all in ints: ``normal`` is a primitive
    integer tuple (gcd 1, or all zero) and the offset, scaled by the unique
    positive factor that makes the normal so, is the reduced pair
    ``num/den`` with ``den > 0``.  That is the primitive integer row
    ``(den*normal, num)``, so two half-spaces with nonzero normals are
    ``==`` exactly when they denote the same set, and the value itself is
    the dedup and cache key.  A half-space is the tuple
    ``(normal, num, den, strict)``: equality, hashing and immutability are
    the tuple's, over ints only.  A zero normal is the canonical TRUE/FALSE
    constraint; the sign of ``num`` decides which.  ``offset`` is
    ``num/den`` as a ``Fraction``, for readers off the hot paths.
    """

    __slots__ = ()

    def __new__(cls, normal: Iterable[Rat], offset: Rat, strict: bool = False) -> "HalfSpace":
        normal = normal if type(normal) is tuple else tuple(normal)
        if type(offset) is int:
            num, den = offset, 1
        else:
            offset = frac(offset)
            num, den = offset.numerator, offset.denominator
        if not all(type(c) is int for c in normal):
            rats = vec(normal)
            scale = lcm(*(c.denominator for c in rats))
            normal = tuple(c.numerator * (scale // c.denominator) for c in rats)
            num *= scale
        return tuple.__new__(cls, (*reduce_row(normal, num, den), strict))

    def __reduce__(self) -> tuple:
        return int_row, tuple(self)

    def __repr__(self) -> str:
        return f"HalfSpace({self.normal!r}, {self.offset!r}, {self.strict!r})"

    @property
    def offset(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def holds(self, point: Sequence[Fraction]) -> bool:
        if len(point) != len(self.normal):
            raise DimensionMismatch(
                f"point of dimension {len(point)} for a row of dimension {self.dim}"
            )
        return self.holds_scaled(*scaled(point))

    def holds_scaled(self, p: Sequence[int], d: int) -> bool:
        """``holds`` at the point ``p / d`` (integer ``p``, ``d > 0``)."""
        normal, num, den, strict = self
        lhs = sum(map(mul, normal, p)) * den
        rhs = num * d
        return lhs < rhs if strict else lhs <= rhs

    def is_zero_normal(self) -> bool:
        return not any(self.normal)

    def constant_truth(self) -> bool:
        """Truth value of a zero-normal constraint."""
        return (0 < self.num) if self.strict else (0 <= self.num)

    def negated(self) -> "HalfSpace":
        """Complementary half-space; strictness flips."""
        return int_row(tuple(-c for c in self.normal), -self.num, self.den, not self.strict)

    def relaxed(self) -> "HalfSpace":
        return int_row(self.normal, self.num, self.den, False) if self.strict else self

    def strictened(self) -> "HalfSpace":
        return self if self.strict else int_row(self.normal, self.num, self.den, True)

    def reflected(self) -> "HalfSpace":
        """Constraint satisfied by ``-x`` exactly when ``self`` holds at ``x``."""
        return int_row(tuple(-c for c in self.normal), self.num, self.den, self.strict)


def int_row(normal: tuple[int, ...], num: int, den: int, strict: bool) -> HalfSpace:
    """A half-space from parts already in canonical form; no coercion."""
    return tuple.__new__(HalfSpace, (normal, num, den, strict))


def reduce_row(
    normal: tuple[int, ...], num: int, den: int
) -> tuple[tuple[int, ...], int, int]:
    """The row ``normal . x <= num/den`` (integer normal, ``den > 0``) in
    canonical form: the normal divided by its gcd, the offset reduced."""
    g = gcd(*normal)
    if g > 1:
        normal = tuple(c // g for c in normal)
        den *= g
    g = gcd(num, den)
    return normal, num // g, den // g


def scaled(point: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """A rational point as integer numerators over one common ``d > 0``."""
    d = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (d // x.denominator) for x in point), d
