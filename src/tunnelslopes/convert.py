"""Conversion between the two rational slope invariants of a knot tunnel.

A tunnel carries two classical rational invariants with the same
denominator, each expressing the other's slope disk in its own coordinates.
The map between them is an involution: expand the input q/p (q odd) as
[2a1, 2b1, ..., 2an, bn] and evaluate

    [(+-1)*2a, -bn, -2an, -2b(n-1), ..., -2a2, -2b1],    a = a1 + ... + an,

where the leading sign is minus for p odd and plus for p even: the word is
that lead followed by the expansion after 2a1, reversed and negated. The
result q'/p satisfies q*q' = -1 (mod p), and an odd integer simply negates.

``st_convert_via_matrix`` reaches the same value along an independent route:
the slope of the first column of the inverse of the change-of-basis matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Tuple

from .contfrac import cf_eval, even_cf_expand, sum_a
from .rationals import INFINITY
from .sl2 import ParityError, change_of_basis


def conversion_word(x) -> Tuple[int, ...]:
    """The continued-fraction word whose value is the converted invariant."""
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"conversion needs an odd numerator, got {x}")
    expansion = even_cf_expand(x)
    lead = 2 * sum_a(expansion)
    if x.denominator % 2 == 1:
        lead = -lead
    return (lead,) + tuple(-c for c in reversed(expansion.entries()[1:]))


def st_convert(x) -> Fraction:
    """Convert one slope invariant of a tunnel into the other."""
    out = cf_eval(conversion_word(x))
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


def convert_range(p: int, q_lo: int, q_hi: int) -> List[Tuple[Fraction, Fraction]]:
    """Pairs (q/p, converted) for every odd q in [q_lo, q_hi] coprime to p."""
    if p <= 0:
        raise ValueError(f"denominator must be positive, got {p}")
    if q_lo > q_hi:
        raise ValueError(f"empty range: {q_lo} > {q_hi}")
    start = q_lo if q_lo % 2 == 1 else q_lo + 1
    pairs = []
    for q in range(start, q_hi + 1, 2):
        if gcd(q, p) != 1:
            continue
        x = Fraction(q, p)
        pairs.append((x, st_convert(x)))
    return pairs
