"""Continued fractions and the parity-constrained even expansion.

A continued fraction word [c1, ..., cm] is one integer fold, the product of
the matrices (n d / d 0) that act as c + 1/x on homogeneous coordinates of the
projective line, over its entries n/d (an integer c is c/1, infinity is 1/0).
Its first column is the value, so a zero entry collapses its neighbours
instead of crashing, and the column is (0, 0) exactly when a step asks for
infinity + infinity. ``cf_eval`` reads that column; ``sl2.word_product``
reads the whole product.

Every rational q/p has exactly one expansion of the shape

    [2a1, 2b1, ..., 2b(k-1), 2ak]        when q is even, and
    [2a1, 2b1, ..., 2ak, bk]             when q is odd,

with every entry nonzero except possibly the leading 2a1, with bk carrying
the parity of p, and with ak and bk sharing a sign whenever bk is 1 or -1.
The expansion is computed by a greedy Euclidean descent, ``_even_runs``,
that fills the a and b positions in turn: each even-forced position takes the
even integer nearest the current value and recurses on the reciprocal of the
remainder. Denominators strictly decrease, so the walk ends on an integer,
which a b position keeps whole as bk. An integer u reached on an a position
is either 2ak itself (u even) or split as (u - 1) + 1/1 or (u + 1) + 1/(-1),
which is exactly the sign normalization the closing pair needs; no
backtracking is ever required because nearest-even ties would need an odd
integer at a non-terminal position, and the descent never produces one.

Near an odd integer the expansion is long and nearly constant: (p + 1)/p has
about p entries, all but a few of them pairs (2, -2). Kraaikamp and Lopes
("The theta group and the continued fraction expansion with even partial
quotients", Geom. Dedicata, 1996) relate such a block of pairs to one
regular partial quotient, and the descent emits it in closed form. At a
value u/v with v > 0, s = sign(u) and d = |u| - v, when v < |u| < 2v and
n = (v - 2d) // (2d) is at least 1, the next n pairs are all (2s, -2s) and
leave (u - 2nsd)/(v - 2nd) at a position of the same parity; the descent
emits them as one ``_Run(s, n)`` item and goes on from there. The pair folds
to M = (-3 2s / -2s 1) = -I + N with N^2 = 0, so a run folds in one step as

    M^n = (-1)^n (I - nN) = (-1)^n (1 + 2n, -2sn / 2sn, 1 - 2n),

and change of basis, which conversion reads, costs a few steps per regular
partial quotient instead of one per entry. ``EvenCF`` stores the expansion
in the same spirit, as runs of equal blocks (ai, bi), and ``even_cf_expand``
turns each run item into one or two of them, so the expansion of (p + 1)/p
takes a few items of memory however large p is. The entries are written
out only when ``a_entries``, ``b_entries`` or ``entries()`` is read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import islice, zip_longest

from .rationals import (
    INFINITY,
    IndeterminateFormError,
    ProjectiveRational,
    _quotient,
    _Record,
    _set,
)

# ``count`` consecutive pairs (2*sign, -2*sign) of a raw even word.
_Run = namedtuple("_Run", ("sign", "count"))


def _fold(word: Iterable[ProjectiveRational]) -> tuple[int, int, int, int]:
    """The product (q s / p r) of (n d / d 0) over the entries n/d of a word.

    A ``_Run`` of n pairs (2g, -2g) multiplies by their closed form
    (-1)^n (1 + 2n, -2gn / 2gn, 1 - 2n).
    """
    q, s, p, r = 1, 0, 0, 1
    for c in word:
        if type(c) is int:
            q, s, p, r = q * c + s, q, p * c + r, p
        elif type(c) is _Run:
            j = 2 * c.count
            k = j * c.sign
            q, s, p, r = q + j * q + k * s, s - j * s - k * q, p + j * p + k * r, r - j * r - k * p
            if c.count % 2:
                q, s, p, r = -q, -s, -p, -r
        else:
            n, d = (1, 0) if c is INFINITY else Fraction(c).as_integer_ratio()
            q, s, p, r = q * n + s * d, q * d, p * n + r * d, p * d
    return q, s, p, r


def cf_eval(entries: Iterable[ProjectiveRational]) -> ProjectiveRational:
    """Evaluate a continued fraction word on the projective line."""
    word = tuple(entries)
    if not word:
        raise ValueError("empty continued fraction")
    q, _, p, _ = _fold(word)
    if q == 0 and p == 0:
        raise IndeterminateFormError("INFINITY + INFINITY is indeterminate")
    return _quotient(q, p)


def _add_blocks(runs: list, a: int, b, count: int) -> None:
    """Append ``count`` blocks (a, b) to a list of runs, extending the last
    run when its block is the same."""
    if runs and runs[-1][0] == a and runs[-1][1] == b:
        runs[-1] = (a, b, runs[-1][2] + count)
    else:
        runs.append((a, b, count))


class EvenCF(_Record):
    """The even expansion of a rational, stored as runs of equal blocks.

    Block i is (ai, bi): the word carries 2ai and then 2bi, except that the
    last block's b is the closing bk exactly as it appears in the word, or
    None when the word ends on 2ak. ``runs`` holds the maximal runs of equal
    consecutive blocks as (ai, bi, count), so n pairs (2s, -2s) take one
    item. ``a_entries`` (a1..ak), ``b_entries`` (b1..b(k-1), plus bk when
    ``has_final_b``) and ``entries()`` are written out from the runs on
    every read, at O(entries) cost each.
    """

    __slots__ = ("runs",)

    def __init__(self, a_entries, b_entries, has_final_b: bool):
        a_entries, b_entries = tuple(a_entries), tuple(b_entries)
        k = len(a_entries)
        if k == 0:
            raise ValueError("an even expansion needs at least one a entry")
        expected_b = k - 1 + (1 if has_final_b else 0)
        if len(b_entries) != expected_b:
            raise ValueError(
                f"expected {expected_b} b entries for k={k}, got {len(b_entries)}"
            )
        if 0 in islice(a_entries, 1, None):
            raise ValueError("only the leading a entry may be zero")
        if 0 in b_entries:
            raise ValueError("b entries must be nonzero")
        if has_final_b:
            a_last, b_last = a_entries[-1], b_entries[-1]
            if abs(b_last) == 1 and a_last != 0 and (a_last > 0) != (b_last > 0):
                raise ValueError(
                    f"closing pair ({a_last}, {b_last}) must share a sign when bk is +-1"
                )
        runs: list = []
        for a, b in zip_longest(a_entries, b_entries):
            _add_blocks(runs, a, b, 1)
        _set(self, "runs", tuple(runs))

    @classmethod
    def _of_runs(cls, runs: tuple) -> "EvenCF":
        """The expansion with these runs, which the caller has made maximal
        and valid; nothing is checked."""
        e = object.__new__(cls)
        _set(e, "runs", runs)
        return e

    def __reduce__(self):
        return EvenCF._of_runs, (self.runs,)  # __init__ takes the entries

    @property
    def a_entries(self) -> tuple[int, ...]:
        entries: list[int] = []
        for a, _, n in self.runs:
            entries += (a,) * n
        return tuple(entries)

    @property
    def b_entries(self) -> tuple[int, ...]:
        entries: list = []
        for _, b, n in self.runs:
            entries += (b,) * n
        if entries[-1] is None:
            entries.pop()
        return tuple(entries)

    @property
    def has_final_b(self) -> bool:
        return self.runs[-1][1] is not None

    def entries(self) -> tuple[int, ...]:
        """The raw word (2a1, 2b1, ..., 2ak[, bk])."""
        word: list[int] = []
        for a, b, n in self.runs:
            word += (2 * a, 2 * b) * n if b is not None else (2 * a,)
        if b is not None:
            word[-1] = b  # the closing bk is stored whole
        return tuple(word)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries()) + "]"


def _nearest_even(x: Fraction) -> int:
    # floor(x/2 + 1/2), doubled; ties would need x to be an odd integer,
    # which the callers exclude.
    n, d = x.numerator, x.denominator
    return 2 * ((n + d) // (2 * d))


def _even_runs(x: Fraction) -> tuple[list, int]:
    """The raw even expansion of x in run form, and the sum of its a entries."""
    items: list = []
    total_a = 0
    at_a_slot = True
    while True:
        u, v = x.numerator, x.denominator
        if v == 1:
            if at_a_slot and u % 2:
                sign = 1 if u > 0 else -1
                items += (u - sign, sign)  # 2ak + 1/bk with bk = sign
                total_a += (u - sign) // 2
            else:
                items.append(u)  # closing 2ak, or bk with its parity forced
                total_a += u // 2 if at_a_slot else 0
            return items, total_a
        d = abs(u) - v
        if 0 < 4 * d <= v:
            # 1 < |x| < 2 with at least one whole pair (2s, -2s) ahead.
            s = 1 if u > 0 else -1
            n = (v - 2 * d) // (2 * d)
            items.append(_Run(s, n))
            total_a += s * n if at_a_slot else -s * n
            x = Fraction(u - 2 * n * s * d, v - 2 * n * d)
            continue
        e = _nearest_even(x)
        items.append(e)
        total_a += e // 2 if at_a_slot else 0
        x = 1 / (x - e)
        at_a_slot = not at_a_slot


def even_cf_expand(x) -> EvenCF:
    """The unique constraint-satisfying even expansion of a rational."""
    *body, last = _even_runs(Fraction(x))[0]
    runs: list = []
    a = None  # the a entry of a block whose b is still to come
    for c in body:
        if type(c) is not _Run:
            if a is None:
                a = c // 2
            else:
                _add_blocks(runs, a, c // 2, 1)
                a = None
        elif a is None:
            # n pairs (2s, -2s) from an a slot are n blocks (s, -s).
            _add_blocks(runs, c.sign, -c.sign, c.count)
        else:
            # From a b slot they close the open block with s, fill n - 1
            # blocks (-s, s) and open one with -s.
            _add_blocks(runs, a, c.sign, 1)
            if c.count > 1:
                _add_blocks(runs, -c.sign, c.sign, c.count - 1)
            a = -c.sign
    if a is None:
        _add_blocks(runs, last // 2, None, 1)
    else:
        _add_blocks(runs, a, last, 1)  # the closing bk is stored whole
    return EvenCF._of_runs(tuple(runs))


def sum_a(e: EvenCF) -> int:
    """The sum of the a entries, the twist count of the change of basis."""
    return sum([a * n for a, _, n in e.runs])
