"""Determinant-1 integer 2x2 matrices as words in the generators U and L.

U is upper unitriangular, L lower unitriangular. A word is a sequence of
exponents (a1, b1, a2, b2, ...) read as U^a1 L^b1 U^a2 L^b2 and so on. A
matrix is only its four entries; the four continued fractions a word
encodes are quotients of the entries of its product (see ``word_product``).
``change_of_basis`` folds the even expansion from the runs of equal blocks
that ``contfrac`` keeps it in, a run of blocks (g, -g) as one closed-form
matrix, so its cost follows the regular partial quotients of the slope
rather than the length of the expansion. For a denominator longer than one
Lehmer window, it folds only the bottom row, from the rounds' own matrices
and the runs after them, and recovers the top row from x (see ``contfrac``).
It converts its argument and checks its parity once, in ``_odd``, and folds
on plain ints in ``_basis``, which takes its closing twist from ``_twist``:
``convert`` shares all three.

Only the public constructor ``SL2Matrix(q, s, p, r)`` checks that the
determinant is 1, since its entries come from outside. ``word_product``,
``change_of_basis`` and ``inverse`` build their matrices with
``SL2Matrix._new`` without the check: their entries are unimodular by
construction, which the tests and ``oracle.random_word_dictionary_check``
certify.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from . import contfrac
from .contfrac import _even_runs, _fold, _fold_runs, _runs_and_fold
from .rationals import ProjectiveRational, _exact, _quotient, _Record, _set, _shown


class ParityError(ValueError):
    """An operation that needs an odd numerator was handed an even one."""


def _odd(x, operation: str) -> Fraction:
    """x as an exact Fraction, which operation needs with an odd numerator."""
    x = _exact(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"{operation} needs an odd numerator, got {_shown(x)}")
    return x


class SL2Matrix(_Record):
    """Rows (q s / p r) with q*r - s*p = 1; the four entries are the whole value."""

    __slots__ = ("q", "s", "p", "r")

    def __init__(self, q: int, s: int, p: int, r: int):
        if q * r - s * p != 1:
            raise ValueError(f"determinant of ({_shown(q)} {_shown(s)} / {_shown(p)} {_shown(r)}) is not 1")
        _set(self, "q", q)
        _set(self, "s", s)
        _set(self, "p", p)
        _set(self, "r", r)

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix._new(self.r, -self.s, -self.p, self.q)

    def determinant(self) -> int:
        return self.q * self.r - self.s * self.p

    def first_column_slope(self) -> ProjectiveRational:
        return _quotient(self.q, self.p)


def word_product(exponents: Iterable[int]) -> SL2Matrix:
    """Product of alternating generator powers, U first; empty word is the identity.

    With J = (0 1 / 1 0), U^a = (a 1 / 1 0) J and L^b = J (b 1 / 1 0), so the
    J factors cancel in pairs and only an odd-length word keeps one, which
    swaps the columns of the continued-fraction fold. So for a nonempty word
    with product (q s / p r), q/p, s/r, q/s and p/r are the values of the
    word, the word without its last entry, the reversed word, and the
    reversed word without its last entry, a word of odd length being padded
    with a final zero; ``oracle.random_word_dictionary_check`` certifies
    these four identities with its own fold.
    """
    exps = tuple(exponents)
    q, s, p, r = _fold(exps)
    if len(exps) % 2:
        q, s, p, r = s, q, r, p
    return SL2Matrix._new(q, s, p, r)


def _twist(x: Fraction, runs: tuple) -> int:
    """The exponent t of the closing U^t of ``change_of_basis(x)``, given the
    runs of x's expansion: 2*sum(ai), negated for an even denominator."""
    t = 2 * sum([a * n for a, _, n in runs])
    return t if x.denominator % 2 else -t


def _basis(x: Fraction) -> tuple[int, int, int, int]:
    """The entries (q, s, p, r) of ``change_of_basis(x)`` for an exact
    ``Fraction`` x whose numerator the caller has checked is odd."""
    if x.denominator >> contfrac._WINDOW:
        runs, (q, s, p, r) = _runs_and_fold(x)
    else:
        runs = _even_runs(x)
        q, s, p, r = _fold_runs(runs)
    t = _twist(x, runs)
    return q, q * t + s, p, p * t + r


def change_of_basis(x) -> SL2Matrix:
    """The coordinate-change matrix attached to an odd-numerator slope.

    For x = q/p with even expansion [2a1, 2b1, ..., 2an, bn] this is the
    word U^2a1 L^2b1 ... U^2an L^bn U^t with t = 2*sum(ai) for p odd and
    t = -2*sum(ai) for p even. An odd numerator closes the expansion on bn,
    so the fold of its runs is its product, and U^t = (1 t / 0 1) ends it.
    An exact ``Fraction`` is used as it is; any other value is converted.
    """
    return SL2Matrix._new(*_basis(_odd(x, "change of basis")))
