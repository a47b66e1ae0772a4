"""Determinant-1 integer 2x2 matrices as words in the generators U and L.

U is upper unitriangular, L lower unitriangular. A word is a sequence of
exponents (a1, b1, a2, b2, ...) read as U^a1 L^b1 U^a2 L^b2 and so on. A
matrix is only its four entries; the continued fractions a word encodes are
read off the matrix its product gives. ``change_of_basis`` folds the even
expansion in its run form, each run of pairs (2g, -2g) as one closed-form
matrix (see ``contfrac``), so its cost follows the regular partial quotients
of the slope rather than the length of the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .contfrac import _even_runs, _fold
from .rationals import ProjectiveRational, _quotient


class ParityError(ValueError):
    """An operation that needs an odd numerator was handed an even one."""


@dataclass(frozen=True)
class SL2Matrix:
    """Rows (q s / p r) with q*r - s*p = 1; the four entries are the whole value."""

    q: int
    s: int
    p: int
    r: int

    def __post_init__(self):
        if self.q * self.r - self.s * self.p != 1:
            raise ValueError(
                f"determinant of ({self.q} {self.s} / {self.p} {self.r}) is not 1"
            )

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.r, -self.s, -self.p, self.q)

    def determinant(self) -> int:
        return self.q * self.r - self.s * self.p

    def first_column_slope(self) -> ProjectiveRational:
        return _quotient(self.q, self.p)


def word_product(exponents: Iterable[int]) -> SL2Matrix:
    """Product of alternating generator powers, U first; empty word is the identity.

    With J = (0 1 / 1 0), U^a = (a 1 / 1 0) J and L^b = J (b 1 / 1 0), so the
    J factors cancel in pairs and only an odd-length word keeps one, which
    swaps the columns of the continued-fraction fold.
    """
    exps = tuple(exponents)
    q, s, p, r = _fold(exps)
    if len(exps) % 2:
        q, s, p, r = s, q, r, p
    return SL2Matrix(q, s, p, r)


def cf_entries_from_word(word: Iterable[int]) -> Tuple[ProjectiveRational, ...]:
    """The four continued fractions a nonempty exponent word encodes.

    With (q s / p r) = ``word_product(word)``, returns (q/p, s/r, q/s, p/r):
    the values of the word, the word without its last entry, the reversed
    word, and the reversed word without its last entry, a word of odd length
    being padded with a final zero. These are identities of the fold of
    symmetric (c 1 / 1 0) behind ``word_product``; the oracle certifies them
    with its own fold of integer pairs.
    """
    word = tuple(word)
    if not word:
        raise ValueError("the empty word has no continued-fraction entries")
    m = word_product(word)
    return (
        _quotient(m.q, m.p),
        _quotient(m.s, m.r),
        _quotient(m.q, m.s),
        _quotient(m.p, m.r),
    )


def change_of_basis(x) -> SL2Matrix:
    """The coordinate-change matrix attached to an odd-numerator slope.

    For x = q/p with even expansion [2a1, 2b1, ..., 2an, bn] this is the
    word U^2a1 L^2b1 ... U^2an L^bn U^t with t = 2*sum(ai) for p odd and
    t = -2*sum(ai) for p even.
    """
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"change of basis needs an odd numerator, got {x}")
    items, total_a = _even_runs(x)
    twist = 2 * total_a
    if x.denominator % 2 == 0:
        twist = -twist
    # An odd numerator closes the expansion on bk, so the raw word is of even
    # length and the twist makes it odd: swap the columns as word_product does.
    s, q, r, p = _fold(items + [twist])
    return SL2Matrix(q, s, p, r)
