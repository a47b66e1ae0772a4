from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tunnelslopes import (
    INFINITY,
    ParityError,
    SL2Matrix,
    cf_entries_from_word,
    change_of_basis,
    projective_add_invert,
    word_product,
)


def mul_oracle(word):
    """Brute-force row-times-column product of the word, kept free of SL2Matrix."""
    rows = ((1, 0), (0, 1))
    for i, e in enumerate(word):
        gen = ((1, e), (0, 1)) if i % 2 == 0 else ((1, 0), (e, 1))
        rows = tuple(
            tuple(sum(rows[r][k] * gen[k][c] for k in range(2)) for c in range(2))
            for r in range(2)
        )
    return rows


def cf_value(entries):
    """Right-to-left c + 1/x steps over an integer word."""
    acc = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        acc = projective_add_invert(c, acc)
    return acc


def as_rows(m):
    return ((m.q, m.s), (m.p, m.r))


IDENTITY = SL2Matrix(1, 0, 0, 1)


nonzero_exponents = st.integers(-5, 5).filter(bool)


class TestGeneratorPower:
    # U^e is the one-letter word (e,) and L^e the word (0, e).
    def test_zeroth_power_is_identity(self):
        assert word_product((0,)) == IDENTITY

    def test_u_power(self):
        assert as_rows(word_product((2,))) == ((1, 2), (0, 1))

    def test_l_power(self):
        assert as_rows(word_product((0, -4))) == ((1, 0), (-4, 1))


class TestWordProduct:
    def test_ul(self):
        assert as_rows(word_product((1, 1))) == mul_oracle((1, 1)) == ((2, 1), (1, 1))

    def test_uul(self):
        assert as_rows(word_product((2, 1))) == mul_oracle((2, 1)) == ((3, 2), (1, 1))

    def test_empty_word(self):
        assert word_product(()) == IDENTITY

    @given(st.lists(st.integers(-5, 5), max_size=8))
    def test_matches_oracle_and_unit_determinant(self, word):
        m = word_product(word)
        assert as_rows(m) == mul_oracle(word)
        assert m.determinant() == 1

    def test_determinant_enforced_at_construction(self):
        with pytest.raises(ValueError):
            SL2Matrix(1, 1, 1, 1)


class TestCfEntriesFromWord:
    def test_pair_word(self):
        assert cf_entries_from_word((1, 1)) == (
            Fraction(2),
            Fraction(1),
            Fraction(2),
            Fraction(1),
        )

    def test_pair_word_with_distinct_entries(self):
        assert cf_entries_from_word((2, 1)) == (
            Fraction(3),
            Fraction(2),
            Fraction(3, 2),
            Fraction(1),
        )

    def test_odd_word_padded(self):
        quartet = cf_entries_from_word((2,))
        assert quartet == (INFINITY, Fraction(2), Fraction(1, 2), Fraction(0))

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            cf_entries_from_word(())

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_identities_hold_on_random_words(self, word):
        padded = tuple(word) + (0,) * (len(word) % 2)
        reverse = padded[::-1]
        expected = tuple(
            cf_value(entries) for entries in (padded, padded[:-1], reverse, reverse[:-1])
        )
        assert cf_entries_from_word(word) == expected

    @given(st.lists(nonzero_exponents, min_size=2, max_size=8).filter(lambda w: len(w) % 2 == 0))
    def test_transpose_symmetry(self, word):
        # The reversed word multiplies out to the transpose, which is where
        # the second pair of identities comes from.
        m = word_product(word)
        t = word_product(tuple(reversed(word)))
        assert (t.q, t.s, t.p, t.r) == (m.q, m.p, m.s, m.r)


class TestChangeOfBasis:
    def test_unit_slope(self):
        m = change_of_basis(Fraction(1, 1))
        assert as_rows(m) == ((1, 0), (1, 1))
        assert m == word_product((0, 1, 0))

    def test_integer_slope_matches_multiplication_oracle(self):
        m = change_of_basis(Fraction(3, 1))
        assert m == word_product((2, 1, 2))
        assert as_rows(m) == mul_oracle((2, 1, 2)) == ((3, 8), (1, 3))

    def test_word_for_33_over_19(self):
        m = change_of_basis(Fraction(33, 19))
        assert m == word_product((2, -4, 4, 1, 6))
        assert as_rows(m) == mul_oracle((2, -4, 4, 1, 6))

    def test_even_denominator_flips_the_tail(self):
        # 3/2 expands as [2, -2] with a = 1, and the even denominator makes
        # the closing twist -2a rather than +2a.
        m = change_of_basis(Fraction(3, 2))
        assert m == word_product((2, -2, -2))
        assert m != word_product((2, -2, 2))

    def test_even_numerator_rejected(self):
        with pytest.raises(ParityError):
            change_of_basis(Fraction(2, 3))

    @given(
        st.integers(-500, 500).map(lambda n: 2 * n + 1),
        st.integers(1, 500),
    )
    def test_always_unimodular(self, q, p):
        from math import gcd

        if gcd(abs(q), p) != 1:
            return
        assert change_of_basis(Fraction(q, p)).determinant() == 1


class TestMatrixBasics:
    def test_inverse(self):
        m = word_product((2, -4, 4, 1, 6))
        assert m.inverse() == word_product((-6, -1, -4, 4, -2))
        assert as_rows(m.inverse()) == mul_oracle((-6, -1, -4, 4, -2))

    @given(
        st.lists(st.integers(-10, 10), min_size=1, max_size=9).filter(lambda w: len(w) % 2)
    )
    def test_inverse_word(self, word):
        # The reversed negated word gives the inverse when the length is odd,
        # as every change-of-basis word's is; at even lengths it need not.
        assert word_product(-e for e in reversed(word)) == word_product(word).inverse()

    def test_first_column_slope(self):
        assert word_product((2, 1)).first_column_slope() == Fraction(3)
        assert IDENTITY.first_column_slope() is INFINITY

    def test_word_is_provenance_not_value(self):
        assert word_product((0, 0)) == IDENTITY
        assert hash(word_product((0, 0))) == hash(IDENTITY)
        assert len({word_product((0, 0)), IDENTITY}) == 1
