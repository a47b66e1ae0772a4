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

``st_convert`` reads the same value off the change-of-basis fold instead. The
change-of-basis word of q/p is the expansion followed by the twist -lead, of
odd length, so its inverse is the reversed negated word: the lead, then
the expansion after 2a1 reversed and negated, then -2a1. The
first column of an odd-length word's matrix is the continued fraction of
the word without its last entry, which here is the conversion word. So the
conversion of q/p is the first-column slope -r/p of the inverse of
``change_of_basis(q/p)`` = (q s / p r), and it costs what change of basis
costs: a few steps per regular partial quotient, even near odd integers,
where the expansion has Theta(p) entries. ``st_convert`` converts its
argument once (an exact ``Fraction`` passes through), checks its parity
once, and reads -r/p straight off the integer fold ``sl2._basis``, with no
matrix built.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from .contfrac import even_cf_expand
from .rationals import _shown
from .sl2 import _basis, _odd, _twist


def conversion_word(x) -> tuple[int, ...]:
    """The continued-fraction word whose value is the converted invariant."""
    x = _odd(x, "conversion")
    expansion = even_cf_expand(x)
    return (-_twist(x, expansion.runs),) + tuple(-c for c in reversed(expansion.entries()[1:]))


def st_convert(x) -> Fraction:
    """Convert one slope invariant of a tunnel into the other.

    The result always has x's denominator: the first column (q, p) of
    ``change_of_basis(x)`` is the fold of x's expansion, which is unimodular,
    so |p| is x's denominator, never 0, and r is prime to p.
    """
    _, _, p, r = _basis(_odd(x, "conversion"))
    return Fraction(-r, p)


def _range_pairs(p: int, q_lo: int, q_hi: int) -> Iterator[tuple[Fraction, Fraction]]:
    """The pairs of ``convert_range`` one at a time, for the command line to
    print as they come; the bounds are checked here, before any pair."""
    if p <= 0:
        raise ValueError(f"denominator must be positive, got {_shown(p)}")
    if q_lo > q_hi:
        raise ValueError(f"empty range: {_shown(q_lo)} > {_shown(q_hi)}")
    start = q_lo if q_lo % 2 == 1 else q_lo + 1
    xs = (Fraction(q, p) for q in range(start, q_hi + 1, 2) if gcd(q, p) == 1)
    return ((x, st_convert(x)) for x in xs)


def convert_range(p: int, q_lo: int, q_hi: int) -> list[tuple[Fraction, Fraction]]:
    """Pairs (q/p, converted) for every odd q in [q_lo, q_hi] coprime to p.

    This stays a list, so callers may index and compare it; ``convert-range``
    streams the same pairs instead of waiting for the whole list.
    """
    return list(_range_pairs(p, q_lo, q_hi))
