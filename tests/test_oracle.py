from fractions import Fraction
from itertools import product

import pytest

from tunnelslopes import (
    check_uniqueness,
    enumerate_even_cfs,
    random_word_dictionary_check,
    selfcheck,
)
from tunnelslopes.oracle import _eval_raw


def reference_enumerate_even_cfs(max_len, max_entry, enforce_sign_rule=True):
    """The enumeration as a product over each position's choices, every word
    folded in full: the reference for the suffix-sharing walk."""
    grouped = {}
    entries = range(-max_entry, max_entry + 1)
    evens = [e for e in entries if e % 2 == 0]
    evens_nonzero = [e for e in evens if e != 0]
    for length in range(1, max_len + 1):
        choices = [evens] + [evens_nonzero] * (length - 1)
        closing_b = length % 2 == 0
        if closing_b:
            choices[-1] = [e for e in entries if e != 0]
        sign_rule = enforce_sign_rule and closing_b
        for seq in product(*choices):
            if not (sign_rule and abs(seq[-1]) == 1 and seq[-2] * seq[-1] < 0):
                grouped.setdefault(_eval_raw(seq), []).append(seq)
    return grouped


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
        walked = enumerate_even_cfs(*bounds, enforce_sign_rule=enforce_sign_rule)
        reference = reference_enumerate_even_cfs(*bounds, enforce_sign_rule=enforce_sign_rule)
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
        ablated = enumerate_even_cfs(3, 4, enforce_sign_rule=False)
        assert len(ablated[Fraction(3)]) == 2  # (2, 1) and (4, -1)
        report = check_uniqueness(ablated)
        assert not report.ok
        assert any("expansions" in v for v in report.violations)

    def test_empty_enumeration_is_clean(self):
        report = check_uniqueness({})
        assert report.ok
        assert report.checked == 0

    def test_violations_are_sorted(self):
        report = check_uniqueness(enumerate_even_cfs(4, 4, enforce_sign_rule=False))
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

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            random_word_dictionary_check(-1, 0)


def test_selfcheck_is_clean():
    reports = selfcheck()
    assert len(reports) == 3
    assert all(r.ok for r in reports)
    for report in reports:
        assert "ok" in report.summary()
