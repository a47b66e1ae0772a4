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

and conversion and change of basis cost a few steps per regular partial
quotient instead of one per entry. ``even_cf_expand`` writes each run out
into its a and b entries, which are the expansion itself, in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, List, NamedTuple, Tuple

from .rationals import INFINITY, IndeterminateFormError, ProjectiveRational, _quotient


class _Run(NamedTuple):
    """``count`` consecutive pairs (2*sign, -2*sign) of a raw even word."""

    sign: int
    count: int


def _fold(word: Iterable[ProjectiveRational]) -> Tuple[int, int, int, int]:
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


def _expand(items: Iterable) -> List[int]:
    """The raw word of a run-form word: each ``_Run`` written out in full."""
    raw: List[int] = []
    for c in items:
        if type(c) is _Run:
            raw += (2 * c.sign, -2 * c.sign) * c.count
        else:
            raw.append(c)
    return raw


def cf_eval(entries: Iterable[ProjectiveRational]) -> ProjectiveRational:
    """Evaluate a continued fraction word on the projective line."""
    word = tuple(entries)
    if not word:
        raise ValueError("empty continued fraction")
    q, _, p, _ = _fold(word)
    if q == 0 and p == 0:
        raise IndeterminateFormError("INFINITY + INFINITY is indeterminate")
    return _quotient(q, p)


@dataclass(frozen=True)
class EvenCF:
    """The even expansion of a rational, stored by its halved entries.

    ``a_entries`` holds a1..ak (the word carries 2*ai), ``b_entries`` holds
    b1..b(k-1) (the word carries 2*bi) plus, when ``has_final_b``, the closing
    bk exactly as it appears in the word.
    """

    a_entries: Tuple[int, ...]
    b_entries: Tuple[int, ...]
    has_final_b: bool

    def __post_init__(self):
        k = len(self.a_entries)
        if k == 0:
            raise ValueError("an even expansion needs at least one a entry")
        expected_b = k - 1 + (1 if self.has_final_b else 0)
        if len(self.b_entries) != expected_b:
            raise ValueError(
                f"expected {expected_b} b entries for k={k}, got {len(self.b_entries)}"
            )
        if 0 in islice(self.a_entries, 1, None):
            raise ValueError("only the leading a entry may be zero")
        if 0 in self.b_entries:
            raise ValueError("b entries must be nonzero")
        if self.has_final_b:
            a_last, b_last = self.a_entries[-1], self.b_entries[-1]
            if abs(b_last) == 1 and a_last != 0 and (a_last > 0) != (b_last > 0):
                raise ValueError(
                    f"closing pair ({a_last}, {b_last}) must share a sign when bk is +-1"
                )

    def entries(self) -> Tuple[int, ...]:
        """The raw word (2a1, 2b1, ..., 2ak[, bk])."""
        word = []
        for i, a in enumerate(self.a_entries):
            word.append(2 * a)
            if i < len(self.a_entries) - 1:
                word.append(2 * self.b_entries[i])
        if self.has_final_b:
            word.append(self.b_entries[-1])
        return tuple(word)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries()) + "]"


def _nearest_even(x: Fraction) -> int:
    # floor(x/2 + 1/2), doubled; ties would need x to be an odd integer,
    # which the callers exclude.
    n, d = x.numerator, x.denominator
    return 2 * ((n + d) // (2 * d))


def _even_runs(x: Fraction) -> Tuple[list, int]:
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
    items = _even_runs(Fraction(x))[0]
    halves: Tuple[List[int], List[int]] = ([], [])  # the a and b entries
    slot = 0
    for c in items:
        if type(c) is _Run:
            # n pairs (2s, -2s) give this slot n entries s and the other n entries -s.
            halves[slot].extend([c.sign] * c.count)
            halves[1 - slot].extend([-c.sign] * c.count)
        else:
            halves[slot].append(c // 2)
            slot = 1 - slot
    a, b = halves
    has_final_b = slot == 0
    if has_final_b:
        b[-1] = items[-1]  # the closing bk is stored whole
    # Lists size the tuples exactly; see two_bridge_slopes.
    return EvenCF(tuple(a), tuple(b), has_final_b)


def sum_a(e: EvenCF) -> int:
    """The sum of the a entries, the twist count of the change of basis."""
    return sum(e.a_entries)
