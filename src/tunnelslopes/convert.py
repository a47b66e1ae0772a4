"""Conversion between the two rational slope invariants of a knot tunnel.

A tunnel carries two classical rational invariants with the same
denominator, each expressing the other's slope disk in its own coordinates.
The map between them is an involution, defined by a word: expand the input
q/p (q odd) as [2a1, 2b1, ..., 2an, bn] and evaluate

    [(+-1)*2a, -bn, -2an, -2b(n-1), ..., -2a2, -2b1],    a = a1 + ... + an,

where the leading sign is minus for p odd and plus for p even: the word is
that lead followed by the expansion after 2a1, reversed and negated. The
result q'/p satisfies q*q' = -1 (mod p), and an odd integer simply negates.
``conversion_word`` writes this word out.

``st_convert`` reads the same value off a matrix instead. The
change-of-basis word of q/p is the expansion followed by the twist -lead, of
odd length, so its inverse is the reversed negated word: the lead, then
the expansion after 2a1 reversed and negated, then -2a1. The
first column of an odd-length word's matrix is the continued fraction of
the word without its last entry, which here is the conversion word. So the
conversion of q/p is the first-column slope -r/p of the inverse of
``change_of_basis(q/p)`` = (q s / p r), and it costs what change of basis
costs: a few steps per regular partial quotient, even near odd integers,
where the expansion has Theta(p) entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, List, Tuple

from .contfrac import even_cf_expand, sum_a
from .sl2 import ParityError, change_of_basis


def _odd(x) -> Fraction:
    """x as a Fraction, which the conversion needs with an odd numerator."""
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"conversion needs an odd numerator, got {x}")
    return x


def conversion_word(x) -> Tuple[int, ...]:
    """The continued-fraction word whose value is the converted invariant."""
    x = _odd(x)
    expansion = even_cf_expand(x)
    lead = 2 * sum_a(expansion)
    if x.denominator % 2 == 1:
        lead = -lead
    return (lead,) + tuple(-c for c in reversed(expansion.entries()[1:]))


def st_convert(x) -> Fraction:
    """Convert one slope invariant of a tunnel into the other."""
    x = _odd(x)
    m = change_of_basis(x)
    if m.p == 0:
        raise ArithmeticError(f"conversion of {x} produced an infinite slope")
    return Fraction(-m.r, m.p)


def _range_pairs(p: int, q_lo: int, q_hi: int) -> Iterator[Tuple[Fraction, Fraction]]:
    """The pairs of ``convert_range`` one at a time, for the command line to
    print as they come; the bounds are checked here, before any pair."""
    if p <= 0:
        raise ValueError(f"denominator must be positive, got {p}")
    if q_lo > q_hi:
        raise ValueError(f"empty range: {q_lo} > {q_hi}")
    start = q_lo if q_lo % 2 == 1 else q_lo + 1
    xs = (Fraction(q, p) for q in range(start, q_hi + 1, 2) if gcd(q, p) == 1)
    return ((x, st_convert(x)) for x in xs)


def convert_range(p: int, q_lo: int, q_hi: int) -> List[Tuple[Fraction, Fraction]]:
    """Pairs (q/p, converted) for every odd q in [q_lo, q_hi] coprime to p.

    This stays a list, so callers may index and compare it; ``convert-range``
    streams the same pairs instead of waiting for the whole list.
    """
    return list(_range_pairs(p, q_lo, q_hi))
