"""Exact rational scalars and vectors.

Every coordinate in the engine is a ``fractions.Fraction``, and every
half-space normal a primitive integer tuple (see ``qe.HalfSpace``); floats
are rejected wherever user data enters, so all predicates downstream stay
decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputFormatError

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
