from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

import tunnelslopes.oracle
from tunnelslopes import (
    INFINITY,
    SL2Matrix,
    check_uniqueness,
    enumerate_even_cfs,
    even_cf_expand,
    mirror,
    normalize_input,
    random_word_dictionary_check,
    selfcheck,
)
from tunnelslopes.oracle import _eval_raw, residue_pair_check

from test_contfrac import reference_fold


def breaks_the_sign_rule(word):
    """Whether a word closes on a pair (ak, +-1) of opposite signs."""
    return len(word) % 2 == 0 and abs(word[-1]) == 1 and word[-2] * word[-1] < 0


def reference_enumerate_even_cfs(max_len, max_entry, enforce_sign_rule=True):
    """The enumeration as a product over each position's choices, every word
    folded in full with Fraction steps: the reference for the suffix-sharing
    walk on integer pairs."""
    grouped = {}
    entries = range(-max_entry, max_entry + 1)
    evens = [e for e in entries if e % 2 == 0]
    evens_nonzero = [e for e in evens if e != 0]
    for length in range(1, max_len + 1):
        choices = [evens] + [evens_nonzero] * (length - 1)
        closing_b = length % 2 == 0
        if closing_b:
            choices[-1] = [e for e in entries if e != 0]
        for seq in product(*choices):
            if not (enforce_sign_rule and breaks_the_sign_rule(seq)):
                grouped.setdefault(reference_fold(seq), []).append(seq)
    return grouped


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=8))
@example([3, 0])  # 3 + 1/0 is INFINITY
@example([5, 3, 0])  # 5 + 1/INFINITY is 5
def test_pair_fold_is_the_fraction_fold(word):
    n, d = _eval_raw(tuple(word))
    assert (n, d) != (0, 0)
    assert (INFINITY if d == 0 else Fraction(n, d)) == reference_fold(word)


class TestEnumeration:
    def test_small_bounds_pin_the_integer_three(self):
        grouped = enumerate_even_cfs(2, 4)
        assert grouped[Fraction(3)] == [(2, 1)]

    def test_value_needing_length_four_is_absent_at_length_two(self):
        assert Fraction(33, 19) not in enumerate_even_cfs(2, 4)

    def test_desk_bounds_pin_33_over_19(self):
        grouped = enumerate_even_cfs(4, 6)
        assert grouped[Fraction(33, 19)] == [(2, -4, 4, 1)]

    @pytest.mark.parametrize("enforce_sign_rule", [True, False])
    @pytest.mark.parametrize("bounds", [(1, 3), (2, 4), (3, 5), (4, 4), (4, 6), (5, 4)])
    def test_matches_the_product_reference(self, bounds, enforce_sign_rule):
        walked = enumerate_even_cfs(*bounds)
        reference = reference_enumerate_even_cfs(*bounds, enforce_sign_rule=enforce_sign_rule)
        if not enforce_sign_rule:
            # The ablated reference, less every word the sign rule forbids.
            kept = {v: [w for w in ws if not breaks_the_sign_rule(w)] for v, ws in reference.items()}
            reference = {v: ws for v, ws in kept.items() if ws}
        assert {v: sorted(w) for v, w in walked.items()} == {
            v: sorted(w) for v, w in reference.items()
        }

    def test_bounds_guarded(self):
        with pytest.raises(ValueError):
            enumerate_even_cfs(6, 6)
        with pytest.raises(ValueError):
            enumerate_even_cfs(4, 9)


class TestUniqueness:
    def test_no_violations_at_desk_scale(self):
        report = check_uniqueness(enumerate_even_cfs(4, 6))
        assert report.ok
        assert report.violations == ()
        assert report.checked > 0

    def test_sign_rule_ablation_creates_duplicates(self):
        ablated = reference_enumerate_even_cfs(3, 4, enforce_sign_rule=False)
        assert len(ablated[Fraction(3)]) == 2  # (2, 1) and (4, -1)
        report = check_uniqueness(ablated)
        assert not report.ok
        assert any("expansions" in v for v in report.violations)
        assert "3 has 2 expansions: [2, 1], [4, -1]" in report.violations

    def test_empty_enumeration_is_clean(self):
        report = check_uniqueness({})
        assert report.ok
        assert report.checked == 0

    def test_expander_mismatch_violation_text(self, monkeypatch):
        # An expander that is off by one gives each integer x the expansion
        # of x + 1: -1 = [0, -1], 1 = [0, 1], 3 = [2, 1].
        monkeypatch.setattr(tunnelslopes.oracle, "even_cf_expand", lambda x: even_cf_expand(x + 1))
        report = check_uniqueness(enumerate_even_cfs(1, 2))
        assert report.checked == 3
        assert report.violations == (
            "-2: expand gives [0, -1], enumeration has [-2]",
            "0: expand gives [0, 1], enumeration has [0]",
            "2: expand gives [2, 1], enumeration has [2]",
        )

    def test_violations_are_sorted(self):
        report = check_uniqueness(reference_enumerate_even_cfs(4, 4, enforce_sign_rule=False))
        assert list(report.violations) == sorted(report.violations)


class TestDictionaryCheck:
    def test_standard_run_is_clean(self):
        report = random_word_dictionary_check(200, 1)
        assert report.ok
        assert report.checked == 200

    def test_deterministic_for_a_seed(self):
        assert random_word_dictionary_check(50, 9) == random_word_dictionary_check(50, 9)

    def test_zero_samples(self):
        report = random_word_dictionary_check(0, 123)
        assert report.ok
        assert report.checked == 0

    def test_wrong_matrix_violation_text(self, monkeypatch):
        # Seed 10 draws the word (2, 3), whose matrix has q/p = 2 + 1/3,
        # s/r = 2, q/s = 3 + 1/2 and p/r = 3; the identity has 1/0 and 0.
        monkeypatch.setattr(tunnelslopes.oracle, "word_product", lambda word: SL2Matrix(1, 0, 0, 1))
        assert random_word_dictionary_check(1, 10).violations == (
            "word (2, 3) p/r: matrix 0, continued fraction 3",
            "word (2, 3) q/p: matrix 1/0, continued fraction 7/3",
            "word (2, 3) q/s: matrix 1/0, continued fraction 7/2",
            "word (2, 3) s/r: matrix 0, continued fraction 2",
        )

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            random_word_dictionary_check(-1, 0)


def test_selfcheck_is_clean():
    reports = selfcheck()
    assert len(reports) == 4
    assert all(r.ok for r in reports)
    for report in reports:
        assert "ok" in report.summary()


def test_selfcheck_golden_reports():
    assert [r.summary() for r in selfcheck()] == [
        "even-cf uniqueness: ok (3109 checked)",
        "cf/matrix dictionary: ok (200 checked)",
        "2-bridge unit rewrite: ok (164 checked)",
        "2-bridge residue pair: ok (82 checked)",
    ]


def n_family(n):
    """Invariants whose expansions are a few runs standing for about n entries."""
    return [(n + 1, n), (n - 1, n), (n + 1, n - 1), (n + 3, n + 1), (2 * n + 1, n + 1), (n + 1, 2)]


class TestResiduePairCheck:
    def test_huge_families_cost_a_few_runs(self):
        pairs = [normalize_input(b, a) for n in (10**16, 10**300) for b, a in n_family(n)]
        report = residue_pair_check(pairs)
        assert (report.ok, report.checked) == (True, 12)

    def test_differing_tuples_are_reported(self, monkeypatch):
        # Mirroring the positive residue's tuple changes m0 and every slope.
        slopes = tunnelslopes.oracle.two_bridge_slopes
        monkeypatch.setattr(
            tunnelslopes.oracle, "two_bridge_slopes", lambda f: mirror(slopes(f)) if f.a > 0 else slopes(f)
        )
        report = residue_pair_check([normalize_input(33, 19), normalize_input(7, 3)])
        assert report.violations == (
            "33/19 and 33/-14 give different tuples",
            "7/3 and 7/-4 give different tuples",
        )
