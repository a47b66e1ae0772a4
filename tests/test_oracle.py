from fractions import Fraction

import pytest

from tunnelslopes import (
    check_uniqueness,
    enumerate_even_cfs,
    random_word_dictionary_check,
    selfcheck,
)


class TestEnumeration:
    def test_small_bounds_pin_the_integer_three(self):
        grouped = enumerate_even_cfs(2, 4)
        assert grouped[Fraction(3)] == [(2, 1)]

    def test_value_needing_length_four_is_absent_at_length_two(self):
        assert Fraction(33, 19) not in enumerate_even_cfs(2, 4)

    def test_desk_bounds_pin_33_over_19(self):
        grouped = enumerate_even_cfs(4, 6)
        assert grouped[Fraction(33, 19)] == [(2, -4, 4, 1)]

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
