"""Cabling slopes of the depth-one tunnels of 2-bridge knots.

A 2-bridge knot is classified by a fraction b/a with b odd; adding multiples
of b to a normalizes it so that |b/a| > 1, and either of the two admissible
residues may be used. Each upper entry 2ai of the even expansion of the
normalized fraction stands for |ai| full twists of sign ei = sign ai, one
cabling per twist. Walking the twists from the last to the first yields the
twist count of each cabling, k = 2b + (e + e')/2 from the signs e, e' of a
twist and its predecessor and the lower entry b between them (zero inside a
block, so the |ai| - 1 cablings inside block i all have k = ei), and from it
the cabling slope, 2 + 1/k = (2k + 1)/k or -2 + 1/k = (1 - 2k)/k depending
on a strand parity that the final lower entry controls. The first cabling
instead contributes the residue k1/(2k1 + 1) mod 1, where k1 is the final
lower entry, less one when the last a entry is negative. All of the
selection bits are zero for these tunnels.

``_walk`` reads the runs of equal blocks (ai, bi) that ``EvenCF`` stores,
never its written-out entries, and adds each cabling with ``_add_run``, so
its items are the maximal runs (k, even, count) of equal cablings. A run of
n blocks is its own lower neighbour n - 1 times; only runs of blocks
(+-1, -+1) are long, and their blocks have no inner cablings, so their n - 1
equal boundary cablings go in as one; any other run is O(log b) blocks long.
So a form costs memory and Python steps per run, not per entry or per twist.
``cabling_steps`` records each cabling as a ``CablingStep``, and only its
result grows with the twists; ``two_bridge_slopes`` builds each item's slope
once, in lowest terms, and returns a ``TunnelParams`` of one slope run per
item. ``make_form`` is the one validation of b/a, ``_walk`` the one place a
zero twist count is rejected, and the records are not checked again.
``oracle.unit_rewrite_check`` certifies the walk against the unit rewrite,
one unit per twist, which only the oracle writes out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .contfrac import EvenCF, even_cf_expand
from .rationals import ResidueSlope, _add_run, _fits, _Record, _set, _shown, residue_of
from .tunnels import TunnelParams


class LinkInvariantError(ValueError):
    """b even is the invariant of a 2-bridge link, which has only its upper
    and lower (single-cabling) tunnels and no cabling sequence here."""


class TrivialKnotError(ValueError):
    """b = +-1 is the trivial knot, which has no 2-bridge tunnel data."""


class CablingContradictionError(RuntimeError):
    """A twist count of zero would mean a cabling of infinite slope."""


def _cabling_slope(k: int, even: bool) -> Fraction:
    """2 + 1/k = (2k + 1)/k for an even strand, -2 + 1/k = (1 - 2k)/k for an
    odd one; both are in lowest terms, since a numerator is +-1 mod k."""
    return Fraction(2 * k + 1 if even else 1 - 2 * k, k)


class CablingStep(_Record):
    """One cabling beyond the first: its unit index, twist count k and strand
    parity ("even" or "odd"), from which the slope 2 + 1/k or -2 + 1/k is
    derived; a plain record that checks nothing (the walk rejects k = 0)."""

    __slots__ = ("index", "k", "parity")

    def __init__(self, index: int, k: int, parity: str):
        _set(self, "index", index)
        _set(self, "k", k)
        _set(self, "parity", parity)

    @property
    def slope(self) -> Fraction:
        return _cabling_slope(self.k, self.parity == "even")


class TwoBridgeForm(_Record):
    """A normalized 2-bridge invariant with the even expansion of b/a; a
    plain record that ``make_form`` validates and builds."""

    __slots__ = ("b", "a", "expansion")

    def __init__(self, b: int, a: int, expansion: EvenCF):
        _set(self, "b", b)
        _set(self, "a", a)
        _set(self, "expansion", expansion)


def make_form(b: int, a: int) -> TwoBridgeForm:
    """Build the form for an already-normalized invariant b/a, checking b/a
    here and nowhere else (its cablings are certified by the oracle)."""
    if b < 0:
        b, a = -b, -a
    if b % 2 == 0:
        raise LinkInvariantError(
            f"b = {_shown(b)} is even: a 2-bridge link has only its upper and lower tunnels"
        )
    if b == 1:
        raise TrivialKnotError("b = 1 names the trivial knot")
    if a == 0:
        raise ValueError("a reduced to 0: b/a is degenerate")
    if gcd(b, abs(a)) != 1:
        raise ValueError(f"{_shown(b)} and {_shown(a)} are not coprime")
    if abs(a) >= b:
        raise ValueError(
            f"|{_shown(b)}/{_shown(a)}| does not exceed 1: normalize a by multiples of {_shown(b)} first"
        )
    return TwoBridgeForm(b, a, even_cf_expand(Fraction(b, a)))


def normalize_input(b: int, a: int) -> list[TwoBridgeForm]:
    """The forms for both residues a' = a (mod b) with |b/a'| > 1.

    For every valid input exactly two residues qualify, one positive and one
    negative; the positive one comes first. ``make_form`` validates each.
    """
    residue = a % b if b else a  # make_form rejects b = 0 as even
    return [make_form(b, residue), make_form(b, residue - b)]


def _walk(form: TwoBridgeForm) -> tuple[ResidueSlope, list[tuple[int, bool, int]], int]:
    """(m0, items, n): the first-cabling residue, then the maximal runs of
    equal cablings after it in construction order as (k, even, count), with
    k the twist count, and their number n, the index of the first cabling."""
    runs = form.expansion.runs
    a_last, b_last, _ = runs[-1]
    k_first = b_last - (a_last < 0)
    if k_first == 0:
        raise CablingContradictionError("first cabling has twist count 0")
    items: list = []
    for j in range(len(runs) - 1, -1, -1):
        # Each block of sign e gives |a| - 1 cablings with k = e and, unless it
        # is block 0, one at its lower boundary, k = 2b' + (e + e')/2 from the
        # block (a', b') below it: its own run's block for all but the lowest.
        a, b, count = runs[j]
        e = 1 if a > 0 else -1
        even = (b_last + (e + 1) // 2) % 2 == 0
        inner = abs(a) - 1
        if inner > 0:
            for _ in range(count - 1):  # a hyperbolic run, O(log b) blocks long
                _add_run(items, (e, even, inner))
                _add_run(items, (2 * b + e, even, 1))
            _add_run(items, (e, even, inner))
        elif count > 1:
            _add_run(items, (2 * b + e, even, count - 1))
        if j:
            a_lower, b_lower, _ = runs[j - 1]
            _add_run(items, (2 * b_lower + (e + (1 if a_lower > 0 else -1)) // 2, even, 1))
    n = i = sum([abs(a) * count for a, _, count in runs]) - 1
    for k, _, count in items:
        if k == 0:
            raise CablingContradictionError(f"cabling {_shown(i)} has twist count 0")
        i -= count
    return residue_of(Fraction(k_first, 2 * k_first + 1)), items, n


# The bytes one cabling takes in cabling_steps' result: its tuple slot, 8 B for
# the tuple's growth, its CablingStep (56 B, slotted) and its index int (28 B).
_STEP_BYTES = 8 + 8 + 56 + 28


def cabling_steps(form: TwoBridgeForm) -> tuple[ResidueSlope, tuple[CablingStep, ...]]:
    """The first-cabling residue and the later cablings in construction order;
    the result, records and all, is sized from the walk's counts before any
    step is built, so a form with more cablings than memory holds fails at
    once with ``MemoryError``."""
    m0, items, n = _walk(form)
    _fits([((None,), n)], "cablings", _STEP_BYTES)
    index = iter(range(n, 0, -1))
    return m0, tuple(
        CablingStep(next(index), k, "even" if even else "odd")
        for k, even, count in items
        for _ in range(count)
    )


def two_bridge_slopes(form: TwoBridgeForm) -> TunnelParams:
    """The full cabling-parameter tuple of the knot's depth-one tunnel, one
    run of equal slopes per walk item and one Fraction per run, so it costs
    O(runs) however many cablings there are."""
    m0, items, n = _walk(form)
    slopes = tuple([(_cabling_slope(k, even), count) for k, even, count in items])
    return TunnelParams._new(m0, slopes, ((0, n - 1),) if n > 1 else ())
