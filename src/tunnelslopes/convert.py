"""Conversion between the two rational slope invariants of a knot tunnel.

A tunnel carries two classical rational invariants with the same
denominator, each expressing the other's slope disk in its own coordinates.
The map between them is an involution: expand the input q/p (q odd) as
[2a1, 2b1, ..., 2an, bn] and evaluate

    [(+-1)*2a, -bn, -2an, -2b(n-1), ..., -2a2, -2b1],    a = a1 + ... + an,

where the leading sign is minus for p odd and plus for p even: the word is
that lead followed by the expansion after 2a1, reversed and negated. The
result q'/p satisfies q*q' = -1 (mod p), and an odd integer simply negates.

``st_convert`` builds and folds this word in the run form of
``contfrac._even_runs``: a run of pairs (2g, -2g) is its own reversed
negation, so it passes into the word unchanged, and a run that opens the
expansion gives up its first entry 2a1 and becomes -2g followed by one pair
fewer. Near odd integers, where the expansion has Theta(p) entries, the word
has a few items per regular partial quotient. ``conversion_word`` writes the
same word out entry by entry.

``st_convert_via_matrix`` reaches the same value along an independent route:
the slope of the first column of the inverse of the change-of-basis matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, List, Tuple

from .contfrac import _Run, _even_runs, _expand, cf_eval
from .rationals import INFINITY
from .sl2 import ParityError, change_of_basis


def _conversion_items(x) -> list:
    """The conversion word in run form: the lead, then the run-form expansion
    after 2a1, reversed, with single entries negated (a run of pairs (2g, -2g)
    is its own reversed negation)."""
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"conversion needs an odd numerator, got {x}")
    items, total_a = _even_runs(x)
    lead = 2 * total_a
    if x.denominator % 2 == 1:
        lead = -lead
    first, rest = items[0], items[1:]
    if type(first) is _Run:
        # 2a1 opens a run (2g, -2g)^n: what follows it is -2g, (2g, -2g)^(n-1).
        rest = [-2 * first.sign, _Run(first.sign, first.count - 1)] + rest
    return [lead] + [c if type(c) is _Run else -c for c in reversed(rest)]


def conversion_word(x) -> Tuple[int, ...]:
    """The continued-fraction word whose value is the converted invariant."""
    return tuple(_expand(_conversion_items(x)))


def st_convert(x) -> Fraction:
    """Convert one slope invariant of a tunnel into the other."""
    out = cf_eval(_conversion_items(x))
    if out is INFINITY:
        raise ArithmeticError(f"conversion of {x} produced an infinite slope")
    return out


def st_convert_via_matrix(x) -> Fraction:
    """The same conversion: the first column of the inverse change-of-basis matrix."""
    x = Fraction(x)
    out = change_of_basis(x).inverse().first_column_slope()
    if out is INFINITY:
        raise ArithmeticError(f"conversion of {x} produced an infinite slope")
    return out


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
