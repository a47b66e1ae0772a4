"""Cabling slopes of the depth-one tunnels of 2-bridge knots.

A 2-bridge knot is classified by a fraction b/a with b odd; adding multiples
of b to a normalizes it so that |b/a| > 1, and either of the two admissible
residues may be used. Each upper entry 2ai of the even expansion of the
normalized fraction stands for |ai| full twists of sign ei = sign ai, one
cabling per twist. Walking the twists from the last to the first yields the
twist count of each cabling, k = 2b + (e + e')/2 from the signs e, e' of a
twist and its predecessor and the lower entry b between them (zero inside a
block, so the walk yields the |ai| - 1 cablings inside block i, all with
k = ei, as one run; a stretch of one-twist blocks with equal entries, which
a run of pairs (2s, -2s) gives, has equal boundary cablings and is one run
too), and from it the cabling slope, 2 + 1/k = (2k + 1)/k or
-2 + 1/k = (1 - 2k)/k depending on a strand parity that the final lower entry
controls. One walk serves both ``cabling_steps``, which records each cabling
as a ``CablingStep``, and ``two_bridge_slopes``, which merges the walk's
items into maximal runs of equal slopes and builds each run's slope once, in
lowest terms. The first cabling instead contributes the residue k1/(2k1 + 1)
mod 1, where k1 is the final lower entry, less one when the last a entry is
negative. All of the selection bits are zero for these tunnels.

The walk reads the runs of equal blocks (ai, bi) that ``EvenCF`` stores,
never its written-out entries: a run of n blocks gives it at most two keys,
n - 1 blocks whose lower neighbour is the same block and one whose lower
neighbour ends the run below. So a form costs memory and Python steps per
run, not per entry or per twist, and so does the ``TunnelParams`` that
``two_bridge_slopes`` returns, which stores runs; only the steps that
``cabling_steps`` returns grow with the twists. This module holds only
that path: ``make_form`` is the one validation of b/a, ``_first_residue``
and ``_walk`` the one place a zero twist count is rejected, and the records
are not checked again.
``oracle.unit_rewrite_check`` certifies the walk against the unit rewrite,
one unit per twist, which only the oracle writes out.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from .contfrac import EvenCF, even_cf_expand
from .rationals import ResidueSlope, _fits, _Record, _set, residue_of
from .tunnels import TunnelParams, _of_runs


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
    derived; a plain record of what the walk yields, which rejects k = 0."""

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
            f"b = {b} is even: a 2-bridge link has only its upper and lower tunnels"
        )
    if b == 1:
        raise TrivialKnotError("b = 1 names the trivial knot")
    if a == 0:
        raise ValueError("a reduced to 0: b/a is degenerate")
    if gcd(b, abs(a)) != 1:
        raise ValueError(f"{b} and {a} are not coprime")
    if abs(a) >= b:
        raise ValueError(
            f"|{b}/{a}| does not exceed 1: normalize a by multiples of {b} first"
        )
    return TwoBridgeForm(b, a, even_cf_expand(Fraction(b, a)))


def normalize_input(b: int, a: int) -> list[TwoBridgeForm]:
    """The forms for both residues a' = a (mod b) with |b/a'| > 1.

    For every valid input exactly two residues qualify, one positive and one
    negative; the positive one comes first. ``make_form`` validates each.
    """
    if b < 0:
        b, a = -b, -a
    residue = a % b if b else a  # make_form rejects b = 0 as even
    return [make_form(b, residue), make_form(b, residue - b)]


def _first_residue(form: TwoBridgeForm) -> ResidueSlope:
    a_last, b_last, _ = form.expansion.runs[-1]
    k_first = b_last - (a_last < 0)
    if k_first == 0:
        raise CablingContradictionError("first cabling has twist count 0")
    return residue_of(Fraction(k_first, 2 * k_first + 1))


def _walk(form: TwoBridgeForm) -> Iterator[tuple[int, int, int, bool]]:
    """(count, index, k, even) per run of equal cablings after the first, in
    construction order: its length, highest twist index, twist count and
    whether its strand parity is even."""
    runs = form.expansion.runs
    b_last = runs[-1][1]
    # Block j from the last to the first, keyed by (aj, a(j-1), b(j-1));
    # block 0 has no lower neighbour and is keyed (a0, None, None). A run of
    # n equal blocks has n - 1 blocks keyed by itself and one keyed by the
    # block below it; equal consecutive keys make one stretch.
    stretches: list = []
    key, count, top = None, 0, -1
    for (a, b, n), (a_lower, b_lower, _) in zip(runs[::-1], runs[-2::-1] + ((None, None, 0),)):
        top += abs(a) * n
        if n > 1:
            if key != (a, a, b):
                stretches.append((key, count))
                key, count = (a, a, b), 0
            count += n - 1
        if key != (a, a_lower, b_lower):
            stretches.append((key, count))
            key, count = (a, a_lower, b_lower), 0
        count += 1
    stretches.append((key, count))
    del stretches[0]  # the empty stretch before the first key
    for (a, a_lower, b), count in stretches:
        # Cablings whose successor twist lies in block j (sign e) have the
        # parity of b_last + (e + 1)/2: |aj| - 1 inside the block with k = e,
        # and for j > 0 one at the boundary, k = 2b(j-1) + (e + e')/2.
        e = 1 if a > 0 else -1
        even = (b_last + (e + 1) // 2) % 2 == 0
        inner = abs(a) - 1
        if a_lower is None:
            if inner > 0:
                yield inner, top, e, even
            return
        k = 2 * b + (e + (1 if a_lower > 0 else -1)) // 2
        if k == 0:
            raise CablingContradictionError(f"cabling {top - max(inner, 0)} has twist count 0")
        if inner > 0:
            for _ in range(count):
                yield inner, top, e, even
                top -= inner
                yield 1, top, k, even
                top -= 1
        else:
            # Blocks of one twist with equal keys, as a run of pairs
            # (2s, -2s) gives, have only their equal boundary cablings.
            yield count, top, k, even
            top -= count


# The bytes one cabling takes in the result of cabling_steps: its slots in the
# list and the tuple, its CablingStep (56 B, slotted) and its index int (28 B).
_STEP_BYTES = 8 + 8 + 56 + 28


def cabling_steps(form: TwoBridgeForm) -> tuple[ResidueSlope, tuple[CablingStep, ...]]:
    """The first-cabling residue and the later cablings in construction order;
    the result, records and all, is sized from the walk's counts before any
    step is built, so a form with more cablings than memory holds fails at
    once with ``MemoryError``."""
    m0, items = _first_residue(form), list(_walk(form))
    n = sum(item[0] for item in items)
    _fits([((None,), n)], "cablings", _STEP_BYTES)
    steps = [None] * n
    cablings = ((i, k, even) for count, top, k, even in items for i in range(top, top - count, -1))
    for at, (i, k, even) in enumerate(cablings):
        steps[at] = CablingStep(i, k, "even" if even else "odd")
    return m0, tuple(steps)


def two_bridge_slopes(form: TwoBridgeForm) -> TunnelParams:
    """The full cabling-parameter tuple of the knot's depth-one tunnel, built
    from the walk's items merged into maximal runs of equal slopes, one
    Fraction per run, so it costs O(runs) however many cablings there are."""
    m0 = _first_residue(form)
    runs: list = []
    for count, _, k, even in _walk(form):
        if runs and runs[-1][1] == k and runs[-1][2] is even:
            runs[-1][0] += count
        else:
            runs.append([count, k, even])
    slopes = tuple([(_cabling_slope(k, even), count) for count, k, even in runs])
    n = sum([count for count, _, _ in runs])
    return _of_runs(m0, slopes, ((0, n - 1),) if n > 1 else ())
