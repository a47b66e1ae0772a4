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
The module keeps it in one form: the runs of equal blocks (ai, bi) that
``EvenCF`` stores. A greedy Euclidean descent, ``_even_runs``, writes them,
filling the a and b slots of the blocks in turn: each slot takes the even
integer nearest the current value and recurses on the reciprocal of the
remainder. Denominators strictly decrease, so the walk ends on an integer,
which a b slot keeps whole as bk. An integer u reached at an a slot is
either 2ak itself (u even) or split as (u - 1) + 1/1 or (u + 1) + 1/(-1),
which is exactly the sign normalization the closing pair needs; no
backtracking is ever required because nearest-even ties would need an odd
integer at a non-terminal slot, and the descent never produces one.

Near an odd integer the expansion is long and nearly constant: (p + 1)/p has
about p entries, all but a few of them pairs (2, -2). Kraaikamp and Lopes
("The theta group and the continued fraction expansion with even partial
quotients", Geom. Dedicata, 1996) relate such a block of pairs to one
regular partial quotient, and the descent writes it in closed form. At a
value u/v with v > 0, s = sign(u) and d = |u| - v, when v < |u| < 2v and
n = (v - 2d) // (2d) is at least 1, the next n pairs are all (2s, -2s) and
leave (u - 2nsd)/(v - 2nd) at a slot of the same kind: from an a slot they
are n blocks (s, -s), from a b slot they close the open block with s, fill
n - 1 blocks (-s, s) and open one with -s. A block (2g, 2h) folds to
(4gh + 1, 2g / 2h, 1) of trace 4gh + 2, so only (1, -1) and (-1, 1) are
parabolic, M = (-3 2g / -2g 1) = -I + N with N^2 = 0, and ``_fold_runs``
folds a run of them in one step as

    M^n = (-1)^n (I - nN) = (-1)^n (1 + 2n, -2gn / 2gn, 1 - 2n);

any other block grows the fold geometrically and repeats O(log p) times. So
(p + 1)/p takes a few runs of memory however large p is, and change of
basis, which conversion reads, costs a few steps per regular partial
quotient instead of one per entry. The entries are written out only when
``a_entries``, ``b_entries`` or ``entries()`` is read.

Each step of the descent does a constant number of operations on the full
numerator and denominator, so a long input costs quadratic time. While the
denominator v of x = u/v is longer than two windows of _WINDOW bits, the
descent runs Lehmer rounds (D. H. Lehmer, "Euclid's algorithm for large
numbers", Amer. Math. Monthly 45, 1938; Knuth, TAOCP vol. 2, 4.5.2) on the
top bits instead. A round shifts u and v right by k bits, the bit length of
v less _WINDOW, to U and V, so that x lies between U/(V + 1) and (U + 1)/V
when U >= 0, and between U/V and (U + 1)/(V + 1) when U < 0. It takes the
descent's steps on both ends of that interval, as pairs of small integers,
for as long as the two ends take the same step, and then applies the
product of those steps to (u, v) at once; a round that takes no step takes
one step on (u, v) itself.

Every step is exactly the one x takes. A step depends only on the value: the
run regime with its count n, where 1 < |x| <= 5/4 and n = floor(1/(2|x| - 2))
- 1, or else h = floor((x + 1)/2) with the sign of the remainder x - 2h, which
lies in [-1, 1). Each of these decision regions is an interval, but for one:
that of h = 1 with a negative remainder is 1 together with (5/4, 2). A round
takes a step only when both ends take it and neither remainder is -1, that
is, neither end is the odd integer 2h - 1 at the closed end of its region;
this excludes the ends +-1, and leaves every region an interval. So the
interval between the ends lies in one region, and x with it. The step is a
Moebius map with no pole on that interval: x -> 1/(x - 2h) has its pole at
2h, where the remainder changes sign, and the run's map has its pole at
+-(1 + 1/(2n)), outside its region. So it maps the interval onto the
interval between the images of its ends, which holds the image of x, and
the next step is decided the same way. Each step also makes both ends'
denominators smaller, so a round ends, and it took a step exactly when
they moved. The steps act linearly on the pairs, so with ends p/q and P/Q
before the round and f/g and F/G after it, the round's matrix is
(f F / g G) (p P / q Q)^-1; like each step, it is unimodular.

Change of basis folds the entries as well, and ``_runs_and_fold`` takes the
fold of a round's entries from the round's matrix R instead of from the
entries. The entry 2h folds to (2h 1 / 1 0), the inverse of its step
(u, v) -> (v, u - 2hv), and to minus that inverse where the step flips both
signs to keep the denominator positive, (u, v) -> (-v, 2hv - u). The n pairs
of a run fold to M^n above, which is (-1)^n times the inverse of their step
(u, v) -> ((1 - 2n)u + 2nsv, (1 + 2n)v - 2nsu). So the entries of a round
fold to R^-1 times -1 to the number of its flips and of its run pairs, and
R^-1 is det(R) times the adjugate of R. One product of the long fold by
a short matrix per round replaces one per entry, and only the Fraction
loop's tail is folded entry by entry, from the rounds' fold. Where the
rounds stop with a block open, that fold holds the block's 2a, which the
tail writes again when it closes the block, so it is first multiplied by
(2a 1 / 1 0)^-1 = (0 1 / 1 -2a). The tail is written as runs of its own and
merged with the rounds' last run after it is folded.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .rationals import (
    INFINITY,
    IndeterminateFormError,
    ProjectiveRational,
    _add_run,
    _exact,
    _quotient,
    _Record,
    _set,
    _written,
)


def _fold(word: Iterable[ProjectiveRational], start: tuple = (1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """The product (q s / p r) of (n d / d 0) over the entries n/d of a word,
    times start on the left."""
    q, s, p, r = start
    for c in word:
        if type(c) is int:
            q, s, p, r = q * c + s, q, p * c + r, p
        else:
            n, d = (1, 0) if c is INFINITY else _exact(c).as_integer_ratio()
            q, s, p, r = q * n + s * d, q * d, p * n + r * d, p * d
    return q, s, p, r


def _fold_runs(runs: tuple, fold: tuple = (1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """``_fold`` of the word that runs of blocks stand for, times fold on the
    left, not written out: a run of n > 1 blocks (g, -g) with g = +-1 in
    closed form, any other run block by block, and the last block on its
    own, as its b is bk whole."""
    word = []
    *body, last = runs
    a, b, n = last
    if n > 1:
        body.append((a, b, n - 1))
    for a, b, n in body:
        if n > 1 and a * a == 1 and b == -a:
            q, s, p, r = _fold(word, fold)
            word = []
            j = 2 * n
            k = j * a
            q, s, p, r = q + j * q + k * s, s - j * s - k * q, p + j * p + k * r, r - j * r - k * p
            fold = (-q, -s, -p, -r) if n % 2 else (q, s, p, r)
        else:
            word += (2 * a, 2 * b) * n
    a, b, _ = last
    word += (2 * a,) if b is None else (2 * a, b)
    return _fold(word, fold)


def cf_eval(entries: Iterable[ProjectiveRational]) -> ProjectiveRational:
    """Evaluate a continued fraction word on the projective line."""
    word = tuple(entries)
    if not word:
        raise ValueError("empty continued fraction")
    q, _, p, _ = _fold(word)
    if q == 0 and p == 0:
        raise IndeterminateFormError("INFINITY + INFINITY is indeterminate")
    return _quotient(q, p)


class EvenCF(_Record):
    """The even expansion of a rational, stored as runs of equal blocks.

    Block i is (ai, bi): the word carries 2ai and then 2bi, except that the
    last block's b is the closing bk exactly as it appears in the word, or
    None when the word ends on 2ak. ``runs`` holds the maximal runs of equal
    consecutive blocks as (ai, bi, count), so n pairs (2s, -2s) take one
    item. A plain record: ``even_cf_expand`` is the one validated way to
    build it, and the oracle and the tests check the rules its runs obey.
    ``a_entries`` (a1..ak), ``b_entries`` (b1..b(k-1), plus bk when
    ``has_final_b``) and ``entries()`` are written out from the runs on
    every read, at O(entries) cost each; a run too long to write out raises
    ``MemoryError``.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: tuple):
        _set(self, "runs", runs)

    @property
    def a_entries(self) -> tuple[int, ...]:
        return tuple(_written([((a,), n) for a, _, n in self.runs], "blocks"))

    @property
    def b_entries(self) -> tuple[int, ...]:
        return tuple(_written([(() if b is None else (b,), n) for _, b, n in self.runs], "blocks"))

    @property
    def has_final_b(self) -> bool:
        return self.runs[-1][1] is not None

    def entries(self) -> tuple[int, ...]:
        """The raw word (2a1, 2b1, ..., 2ak[, bk])."""
        blocks = [((2 * a, 2 * b) if b is not None else (2 * a,), n) for a, b, n in self.runs]
        word = _written(blocks, "blocks")
        if self.has_final_b:
            word[-1] = self.runs[-1][1]  # the closing bk is stored whole
        return tuple(word)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries()) + "]"


# The bits of the denominator a Lehmer round reads, set by measurement: with
# 22 to 30, 100-4000 digit descents took within 10% of their best time.
_WINDOW = 26


def _emit(runs: list, a, h: int, n: int):
    """Write one step of the descent into runs and return the open block's a:
    the entry 2h for n = 0, else n pairs (2h, -2h) with h = +-1."""
    if not n:
        if a is None:
            return h
        _add_run(runs, (a, h, 1))
        return None
    if a is None:
        _add_run(runs, (h, -h, n))
        return None
    # close the open block with h, fill n - 1 blocks (-h, h), open one with -h
    _add_run(runs, (a, h, 1))
    if n > 1:
        _add_run(runs, (-h, h, n - 1))
    return -h


def _round(runs: list, a, p: int, q: int, P: int, Q: int):
    """Emit the descent's steps while the ends p/q and P/Q (q, Q > 0) of an
    interval take the same one, as the module docstring derives; return the
    open block's a, the ends after, and the sign that the fold of the
    entries emitted takes against the inverse of the round's matrix."""
    sign = 1
    while True:
        h = (p + q) // (2 * q)
        if h != (P + Q) // (2 * Q):
            break
        d, e = abs(p) - q, abs(P) - Q
        if 0 < 4 * d <= q:
            n = (q - 2 * d) // (2 * d)
            if not 0 < 4 * e <= Q or n != (Q - 2 * e) // (2 * e):
                break
            p, q, P, Q = p - 2 * n * h * d, q - 2 * n * d, P - 2 * n * h * e, Q - 2 * n * e
            if n & 1:
                sign = -sign
            a = _emit(runs, a, h, n)
            continue
        if 0 < 4 * e <= Q:
            break
        r, R = p - 2 * h * q, P - 2 * h * Q
        if r > 0 < R:
            p, q, P, Q = q, r, Q, R
        elif -q < r < 0 and -Q < R < 0:  # r = -q at the odd integer 2h - 1, as at +-1
            p, q, P, Q = -q, -r, -Q, -R
            sign = -sign
        else:
            break
        if a is None:  # inline, as in _even_runs
            a = h
        else:
            _add_run(runs, (a, h, 1))
            a = None
    return a, p, q, P, Q, sign


def _lehmer_rounds(runs: list, a, u: int, v: int, folds: list | None = None) -> tuple:
    """Emit the descent's steps from u/v, with open block a, in Lehmer rounds
    while v is longer than two windows; return the open block's a and the
    value left. Given a list folds, append to it the fold of each round's
    entries, as the module docstring derives it from the round's matrix."""
    while v >> 2 * _WINDOW > 0:
        k = v.bit_length() - _WINDOW
        U, V = u >> k, v >> k
        p, q, P, Q = (U, V + 1, U + 1, V) if U >= 0 else (U, V, U + 1, V + 1)
        a, f, g, F, G, sign = _round(runs, a, p, q, P, Q)
        if g != q:
            # R = (f F / g G) (p P / q Q)^-1 is the round's matrix.
            det = p * Q - P * q
            A, B = (f * Q - F * q) // det, (F * p - f * P) // det
            C, D = (g * Q - G * q) // det, (G * p - g * P) // det
        else:  # no step: take one on (u, v) itself
            d = abs(u) - v
            if 0 < 4 * d <= v:  # n pairs: (u, v) -> (u - 2nhd, v - 2nd)
                h = 1 if u > 0 else -1
                n = (v - 2 * d) // (2 * d)
                A, B, C, D = 1 - 2 * n, 2 * n * h, -2 * n * h, 1 + 2 * n
                sign = -1 if n & 1 else 1
            else:  # the entry 2h: (u, v) -> sign * (v, u - 2hv)
                h, n = (u + v) // (2 * v), 0
                sign = 1 if u > 2 * h * v else -1
                A, B, C, D = 0, sign, sign, -2 * h * sign
            a = _emit(runs, a, h, n)
        u, v = A * u + B * v, C * u + D * v
        if folds is not None:
            e = sign * (A * D - B * C)  # sign * R^-1 = e * adj(R), as det R = +-1
            folds.append((e * D, -e * B, -e * C, e * A))
    return a, Fraction(u, v)


def _even_runs(x: Fraction, a=None) -> tuple:
    """The runs (a, b, count) of the even expansion of x, written by the
    descent in the module docstring: in Lehmer rounds while the denominator
    is longer than two windows, then one Fraction step at a time. Given the
    open block's a, the runs go on from x at that block's b slot."""
    runs: list = []
    if x.denominator >> 2 * _WINDOW:
        a, x = _lehmer_rounds(runs, a, x.numerator, x.denominator)
    while True:
        u, v = x.numerator, x.denominator
        if v == 1:
            if a is not None:
                _add_run(runs, (a, u, 1))  # the closing bk is stored whole
            elif u % 2:
                s = 1 if u > 0 else -1
                _add_run(runs, ((u - s) // 2, s, 1))  # 2ak + 1/bk with bk = s
            else:
                _add_run(runs, (u // 2, None, 1))
            return tuple(runs)
        d = abs(u) - v
        if 0 < 4 * d <= v:
            # 1 < |x| < 2 with n >= 1 whole pairs (2s, -2s) ahead.
            s = 1 if u > 0 else -1
            n = (v - 2 * d) // (2 * d)
            a = _emit(runs, a, s, n)
            x = Fraction(u - 2 * n * s * d, v - 2 * n * d)
            continue
        h = (u + v) // (2 * v)  # 2h is the even integer nearest x
        if a is None:  # inline: calling _emit here cost typical descents 2-3%
            a = h
        else:
            _add_run(runs, (a, h, 1))
            a = None
        x = 1 / (x - 2 * h)


def _runs_and_fold(x: Fraction) -> tuple:
    """``_even_runs(x)`` and ``_fold_runs`` of them, with the Lehmer rounds'
    entries folded from the rounds' own matrices, as the module docstring
    derives, and only the Fraction loop's tail folded run by run."""
    runs, folds = [], []
    a, x = _lehmer_rounds(runs, None, x.numerator, x.denominator, folds)
    q, s, p, r = 1, 0, 0, 1
    for A, B, C, D in folds:
        q, s, p, r = q * A + s * C, q * B + s * D, p * A + r * C, p * B + r * D
    if a is not None:  # the tail writes the open block's 2a again: undo it
        q, s, p, r = s, q - 2 * a * s, r, p - 2 * a * r
    tail = _even_runs(x, a)
    _add_run(runs, tail[0])
    runs += tail[1:]
    return tuple(runs), _fold_runs(tail, (q, s, p, r))


def even_cf_expand(x) -> EvenCF:
    """The unique constraint-satisfying even expansion of a rational."""
    return EvenCF(_even_runs(_exact(x)))


def sum_a(e: EvenCF) -> int:
    """The sum of the a entries, the twist count of the change of basis."""
    return sum([a * n for a, _, n in e.runs])
