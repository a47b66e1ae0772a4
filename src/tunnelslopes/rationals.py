"""Exact slope arithmetic: rationals, the projective line, and residues mod 1.

Every slope in this package is an exact ``fractions.Fraction``, the single
point at infinity of the projective rational line, or a residue class mod 1.
All values are immutable and all operations are pure functions, so everything
here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union


class DegenerateFractionError(ValueError):
    """The fraction 0/0 has no value."""


class NotFiniteError(ValueError):
    """A nonzero numerator over a zero denominator is not a finite rational."""


class IndeterminateFormError(ArithmeticError):
    """The projective step infinity + infinity has no value."""


class _Infinity:
    """The unsigned point at infinity of the projective rational line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __neg__(self) -> "_Infinity":
        return self


INFINITY = _Infinity()

ProjectiveRational = Union[Fraction, _Infinity]


def reduce(numerator: int, denominator: int) -> Fraction:
    """Canonical reduced fraction with a positive denominator."""
    if numerator == 0 and denominator == 0:
        raise DegenerateFractionError("0/0 is degenerate")
    if denominator == 0:
        raise NotFiniteError(f"{numerator}/0 is not finite (use INFINITY)")
    return Fraction(numerator, denominator)


def render(x) -> str:
    """Stable text form: integers bare, otherwise numerator/denominator.

    Accepts INFINITY (rendered 1/0), ints and any rational; a ``Fraction`` is
    formatted as it is, without being rebuilt.
    """
    if x is INFINITY:
        return "1/0"
    f = x if type(x) is Fraction else Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _excerpt(text: str) -> str:
    """repr(text) for error messages, cut to its ends and length when long."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:20] + '...' + text[-20:]!r} ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' into a reduced Fraction."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {_excerpt(text)}") from exc
    except ValueError as exc:
        raise ValueError(f"not a rational: {_excerpt(text)}") from exc


@dataclass(frozen=True)
class SlopePair:
    """The unordered coordinate pair {(p, q), (-p, -q)} of a slope.

    The stored representative has q > 0, or q = 0 and p > 0, so equality of
    values is equality of fields.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise ValueError("slope pair (0, 0) is not allowed")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"slope pair ({self.p}, {self.q}) is not coprime")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)


def _quotient(numerator: int, denominator: int) -> ProjectiveRational:
    """numerator/denominator, or INFINITY when denominator = 0."""
    return INFINITY if denominator == 0 else Fraction(numerator, denominator)


def slope_of_pair(sp: SlopePair) -> ProjectiveRational:
    """The slope q/p of a pair, infinite exactly when p = 0."""
    return _quotient(sp.q, sp.p)


@dataclass(frozen=True)
class ResidueSlope:
    """A slope residue class mod 1, or infinity.

    Finite classes are stored by their representative in [0, 1); the stored
    denominator is the q of the underlying reduced p/q.
    """

    value: ProjectiveRational

    def __post_init__(self):
        if self.value is INFINITY:
            return
        v = Fraction(self.value)
        if not 0 <= v < 1:
            raise ValueError(f"residue representative {v} is outside [0, 1)")
        object.__setattr__(self, "value", v)

    @property
    def is_infinite(self) -> bool:
        return self.value is INFINITY

    @property
    def numerator(self) -> int:
        if self.is_infinite:
            raise NotFiniteError("the infinite residue has no numerator")
        return self.value.numerator

    @property
    def denominator(self) -> int:
        if self.is_infinite:
            raise NotFiniteError("the infinite residue has no denominator")
        return self.value.denominator

    def negated(self) -> "ResidueSlope":
        if self.is_infinite:
            return self
        return ResidueSlope((-self.value) % 1)

    def __str__(self) -> str:
        return f"[ {render(self.value)} ]"


def residue_of(r: ProjectiveRational) -> ResidueSlope:
    """The class of r mod 1, with infinity passing through unchanged."""
    if r is INFINITY:
        return ResidueSlope(INFINITY)
    return ResidueSlope(Fraction(r) % 1)


def projective_add_invert(c: ProjectiveRational, x: ProjectiveRational) -> ProjectiveRational:
    """c + 1/x on the projective line.

    Conventions: 1/INFINITY = 0, 1/0 = INFINITY, and a finite value plus
    INFINITY is INFINITY. The only undefined combination is c = INFINITY
    with x = 0, which asks for INFINITY + INFINITY.
    """
    if x is INFINITY:
        inverted: ProjectiveRational = Fraction(0)
    elif x == 0:
        inverted = INFINITY
    else:
        inverted = 1 / Fraction(x)
    if c is INFINITY:
        if inverted is INFINITY:
            raise IndeterminateFormError("INFINITY + INFINITY is indeterminate")
        return INFINITY
    if inverted is INFINITY:
        return INFINITY
    return Fraction(c) + inverted
