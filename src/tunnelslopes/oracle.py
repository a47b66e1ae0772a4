"""Exhaustive and randomized cross-checks, shipped so the command line can
re-certify the three load-bearing facts on demand: the even expansion is the
unique constraint-satisfying one at desk scale, word matrices encode exactly
the continued fractions of their words, and 2-bridge unit rewrites keep b/a
and give the twist counts of the cabling walk.

All three checks evaluate words with their own fold of projective c + 1/x
steps, sharing nothing with the integer fold or the expansion they certify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Tuple

from .contfrac import even_cf_expand
from .rationals import INFINITY, ProjectiveRational, projective_add_invert, render
from .sl2 import word_product
from .twobridge import TwoBridgeForm, _unit_word, cabling_steps, make_form, unit_rewrite


@dataclass(frozen=True)
class OracleReport:
    name: str
    checked: int
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"{self.name}: {status} ({self.checked} checked)"
        if self.violations:
            line += "".join(f"\n  {v}" for v in self.violations)
        return line


def _eval_raw(entries: Tuple[ProjectiveRational, ...]) -> ProjectiveRational:
    # The reference evaluation, right to left; INFINITY and zero tails
    # follow projective_add_invert's conventions.
    acc = entries[-1] if entries[-1] is INFINITY else Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        acc = projective_add_invert(c, acc)
    return acc


def _candidate_words(
    length: int, max_entry: int, enforce_sign_rule: bool
) -> Iterator[Tuple[Tuple[int, ...], ProjectiveRational]]:
    """Every candidate word of one length with its value under the reference
    fold. Words grow from the last entry leftwards, so each suffix is folded
    once for all the words that end with it."""
    entries = range(-max_entry, max_entry + 1)
    evens = [e for e in entries if e % 2 == 0]
    evens_nonzero = [e for e in evens if e != 0]
    choices = [evens] + [evens_nonzero] * (length - 1)
    closing_b = length % 2 == 0
    if closing_b:
        choices[-1] = [e for e in entries if e != 0]
    sign_rule = enforce_sign_rule and closing_b

    def extend(word, value):
        if len(word) == length:
            yield word, value
            return
        for c in choices[-1 - len(word)]:
            # The closing pair (ak, +-1) must share a sign; only a closing b
            # entry is odd.
            if not (sign_rule and abs(word[0]) == 1 and c * word[0] < 0):
                yield from extend((c,) + word, projective_add_invert(c, value))

    for e in choices[-1]:
        yield from extend((e,), Fraction(e))


def enumerate_even_cfs(
    max_len: int, max_entry: int, enforce_sign_rule: bool = True
) -> Dict[Fraction, List[Tuple[int, ...]]]:
    """Every constraint-satisfying even word within the bounds, grouped by value.

    Words are raw entry tuples with |entry| <= max_entry and at most max_len
    entries. Disabling the sign rule is an ablation hook that should make
    duplicates appear.
    """
    if max_len > 5 or max_entry > 8:
        raise ValueError("enumeration bounds are desk scale: max_len <= 5, max_entry <= 8")
    grouped: Dict[Fraction, List[Tuple[int, ...]]] = {}
    for length in range(1, max_len + 1):
        for word, value in _candidate_words(length, max_entry, enforce_sign_rule):
            grouped.setdefault(value, []).append(word)
    return grouped


def check_uniqueness(enumeration: Dict[Fraction, List[Tuple[int, ...]]]) -> OracleReport:
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
    zero. The identities are evaluated from scratch here rather than through
    ``cf_entries_from_word``. Deterministic for a fixed seed.
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
            matrix_side = INFINITY if den == 0 else Fraction(num, den)
            cf_side = _eval_raw(entries)
            if matrix_side != cf_side:
                violations.append(
                    f"word {word} {label}: matrix {render(matrix_side)}, "
                    f"continued fraction {render(cf_side)}"
                )
    return OracleReport(
        "cf/matrix dictionary", checked=samples, violations=tuple(sorted(violations))
    )


def unit_rewrite_check(forms: List[TwoBridgeForm]) -> OracleReport:
    """Check each form against the unit rewrite of its expansion: one unit per
    twist, the unit word evaluates back to b/a under the reference fold, and
    ``cabling_steps`` gives the twist count k = 2*ub(i-1) + (ua(i) + ua(i-1))/2
    of every unit i after the first."""
    violations = []
    for f in forms:
        twists = sum(abs(a) for a in f.expansion.a_entries)
        ua, ub = unit_rewrite(f.expansion)
        if len(ua) != twists:
            violations.append(f"{f.b}/{f.a}: {len(ua)} units for {twists} twists")
        elif (value := _eval_raw(_unit_word(ua, ub))) != Fraction(f.b, f.a):
            violations.append(f"{f.b}/{f.a}: unit word evaluates to {render(value)}")
        elif [(s.index, s.k) for s in cabling_steps(f)[1]] != [
            (i, 2 * ub[i - 1] + (ua[i] + ua[i - 1]) // 2) for i in range(len(ua) - 1, 0, -1)
        ]:
            violations.append(f"{f.b}/{f.a}: cabling twist counts differ from the unit walk")
    return OracleReport("2-bridge unit rewrite", len(forms), tuple(sorted(violations)))


def selfcheck() -> List[OracleReport]:
    """The standard certification run used by the command line."""
    forms = [make_form(b, a) for b in range(3, 20, 2) for a in range(1 - b, b) if gcd(b, a) == 1]
    uniqueness = check_uniqueness(enumerate_even_cfs(4, 6))
    return [uniqueness, random_word_dictionary_check(200, 1), unit_rewrite_check(forms)]
