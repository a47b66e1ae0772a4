"""Exhaustive and randomized cross-checks, shipped so the command line can
re-certify the four load-bearing facts on demand: the even expansion is the
unique constraint-satisfying one at desk scale, word matrices encode exactly
the continued fractions of their words, 2-bridge unit rewrites keep b/a and
give the twist counts of the cabling walk, and both admissible residues of a
2-bridge invariant give the same cabling tuple.

The first three checks fold integer words with their own loop on pairs (n, d) =
n/d, sharing nothing with the fold or the expansion they certify; a value
becomes a ``Fraction`` or ``INFINITY`` only as an enumeration key or in a
violation message. The unit rewrite, which writes every twist out as one
unit, lives here too: the cabling walk of ``twobridge`` never needs it, and
this is the one place that certifies with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .contfrac import EvenCF, even_cf_expand
from .rationals import _quotient, _Record, _set, _written, render
from .sl2 import word_product
from .twobridge import TwoBridgeForm, cabling_steps, normalize_input, two_bridge_slopes


class OracleReport(_Record):
    __slots__ = ("name", "checked", "violations")

    def __init__(self, name: str, checked: int, violations: tuple[str, ...]):
        _set(self, "name", name)
        _set(self, "checked", checked)
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"{self.name}: {status} ({self.checked} checked)"
        if self.violations:
            line += "".join(f"\n  {v}" for v in self.violations)
        return line


def _eval_raw(word: tuple[int, ...]) -> tuple[int, int]:
    # The reference fold, right to left: c + 1/(n/d) = (c*n + d)/n. Each step
    # is unimodular, so (n, d) != (0, 0); d = 0 is INFINITY, as for 1/0.
    n, d = word[-1], 1
    for c in reversed(word[:-1]):
        n, d = c * n + d, n
    return n, d


def enumerate_even_cfs(max_len: int, max_entry: int) -> dict[Fraction, list[tuple[int, ...]]]:
    """Every constraint-satisfying even word within the bounds, grouped by value.

    Words are raw entry tuples with |entry| <= max_entry and at most max_len
    entries.
    """
    if max_len > 5 or max_entry > 8:
        raise ValueError("enumeration bounds are desk scale: max_len <= 5, max_entry <= 8")
    entries = range(-max_entry, max_entry + 1)
    evens = [e for e in entries if e % 2 == 0]
    evens_nonzero = [e for e in evens if e != 0]
    grouped: dict[Fraction, list[tuple[int, ...]]] = {}
    for length in range(1, max_len + 1):
        choices = [evens] + [evens_nonzero] * (length - 1)
        closing_b = length % 2 == 0
        if closing_b:
            choices[-1] = [e for e in entries if e != 0]
        # Words grow from the last entry leftwards with their values n/d, so
        # each suffix is folded once for all the words that end with it.
        words = [((e,), e, 1) for e in choices[-1]]
        for choice in reversed(choices[:-1]):
            # The closing pair (ak, +-1) must share a sign; only a closing b
            # entry is odd.
            words = [
                ((c,) + word, c * n + d, n)
                for word, n, d in words
                for c in choice
                if not (closing_b and abs(word[0]) == 1 and c * word[0] < 0)
            ]
        for word, n, d in words:
            grouped.setdefault(_quotient(n, d), []).append(word)
    return grouped


def check_uniqueness(enumeration: dict[Fraction, list[tuple[int, ...]]]) -> OracleReport:
    """Assert one expansion per value and that the expander reproduces it."""
    violations = []
    for value, seqs in enumeration.items():
        if len(seqs) > 1:
            listed = ", ".join(str(list(s)) for s in sorted(seqs))
            violations.append(f"{render(value)} has {len(seqs)} expansions: {listed}")
            continue
        produced = even_cf_expand(value).entries()
        if produced != seqs[0]:
            violations.append(
                f"{render(value)}: expand gives {list(produced)}, "
                f"enumeration has {list(seqs[0])}"
            )
    return OracleReport(
        "even-cf uniqueness", checked=len(enumeration), violations=tuple(sorted(violations))
    )


_EXPONENTS = [e for e in range(-5, 6) if e != 0]


def random_word_dictionary_check(samples: int, seed: int) -> OracleReport:
    """Check all four continued-fraction identities on random generator words.

    Words have one to four (a, b) exponent pairs drawn from [-5, 5] without
    zero. The four quotients of ``word_product``'s entries are compared with
    continued fractions evaluated from scratch. Deterministic for a fixed seed.
    """
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        pairs = rng.randint(1, 4)
        word = tuple(rng.choice(_EXPONENTS) for _ in range(2 * pairs))
        m = word_product(word)
        reverse = tuple(reversed(word))
        checks = (
            ("q/p", m.q, m.p, word),
            ("s/r", m.s, m.r, word[:-1]),
            ("q/s", m.q, m.s, reverse),
            ("p/r", m.p, m.r, reverse[:-1]),
        )
        for label, num, den, entries in checks:
            n, d = _eval_raw(entries)
            if num * d != den * n:
                violations.append(
                    f"word {word} {label}: matrix {render(_quotient(num, den))}, "
                    f"continued fraction {render(_quotient(n, d))}"
                )
    return OracleReport(
        "cf/matrix dictionary", checked=samples, violations=tuple(sorted(violations))
    )


def _unit_word(unit_a: tuple[int, ...], unit_b: tuple[int, ...]) -> tuple[int, ...]:
    word = []
    for u, b in zip(unit_a, unit_b[:-1]):
        word.extend((2 * u, 2 * b))
    word.extend((2 * unit_a[-1], unit_b[-1]))
    return tuple(word)


def unit_rewrite(e: EvenCF) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expand every a entry into signed units, padding with zero b entries.

    The value is unchanged and the closing b entry stays put; the number of
    units is the sum of |ai|, and a run too long to write out raises MemoryError.
    """
    if not e.has_final_b:
        raise ValueError("unit rewrite needs the odd-numerator (knot) form")
    if any(a == 0 for a, _, _ in e.runs):
        raise ValueError("unit rewrite needs every a entry nonzero (|value| > 1)")
    unit_a = _written([((1 if a > 0 else -1,), abs(a) * n) for a, _, n in e.runs], "units")
    # unit_a fits, so each run's b pattern, of |a| <= |a| * n units, can be built.
    unit_b = _written([((0,) * (abs(a) - 1) + (b,), n) for a, b, n in e.runs], "units")
    return tuple(unit_a), tuple(unit_b)


def unit_rewrite_check(forms: list[TwoBridgeForm]) -> OracleReport:
    """Check each form against the unit rewrite of its expansion: one unit per
    twist, the unit word evaluates back to b/a under the reference fold, and
    ``cabling_steps`` gives the twist count k = 2*ub(i-1) + (ua(i) + ua(i-1))/2
    of every unit i after the first."""
    violations = []
    for f in forms:
        twists = sum([abs(a) * n for a, _, n in f.expansion.runs])
        ua, ub = unit_rewrite(f.expansion)
        if len(ua) != twists:
            violations.append(f"{f.b}/{f.a}: {len(ua)} units for {twists} twists")
        elif (value := _eval_raw(_unit_word(ua, ub)))[0] * f.a != value[1] * f.b:
            violations.append(f"{f.b}/{f.a}: unit word evaluates to {render(_quotient(*value))}")
        elif [(s.index, s.k) for s in cabling_steps(f)[1]] != [
            (i, 2 * ub[i - 1] + (ua[i] + ua[i - 1]) // 2) for i in range(len(ua) - 1, 0, -1)
        ]:
            violations.append(f"{f.b}/{f.a}: cabling twist counts differ from the unit walk")
    return OracleReport("2-bridge unit rewrite", len(forms), tuple(sorted(violations)))


def residue_pair_check(pairs: list[tuple[TwoBridgeForm, TwoBridgeForm]]) -> OracleReport:
    """Check that both admissible residues of each 2-bridge invariant, the
    two forms of ``normalize_input``, give the same cabling tuple. Tuples
    compare by their runs, so a form of 10^300 twists costs a few runs."""
    violations = []
    for first, second in pairs:
        if two_bridge_slopes(first) != two_bridge_slopes(second):
            violations.append(f"{first.b}/{first.a} and {second.b}/{second.a} give different tuples")
    return OracleReport("2-bridge residue pair", len(pairs), tuple(sorted(violations)))


def selfcheck() -> list[OracleReport]:
    """The standard certification run used by the command line."""
    small = [normalize_input(b, a) for b in range(3, 20, 2) for a in range(1, b) if gcd(b, a) == 1]
    uniqueness = check_uniqueness(enumerate_even_cfs(4, 6))
    return [
        uniqueness,
        random_word_dictionary_check(200, 1),
        unit_rewrite_check([form for pair in small for form in pair]),
        residue_pair_check(small),
    ]
