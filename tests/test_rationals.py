from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tunnelslopes import (
    INFINITY,
    IndeterminateFormError,
    NotFiniteError,
    ResidueSlope,
    projective_add_invert,
    render,
    residue_of,
)


class TestRender:
    def test_integers_bare(self):
        assert render(Fraction(3)) == "3"
        assert render(-55) == "-55"

    def test_sign_on_numerator(self):
        assert render(Fraction(-299, 35)) == "-299/35"

    def test_infinity(self):
        assert render(INFINITY) == "1/0"

    @pytest.mark.parametrize(
        "value,text",
        [
            (0, "0"),
            (-55, "-55"),
            (-(10**30), "-1" + "0" * 30),
            (Fraction(-299, 35), "-299/35"),
            (Fraction(-1, 2), "-1/2"),
            (Fraction(-14, 2), "-7"),
            (Fraction(0), "0"),
            (Fraction(10**30, 10), "1" + "0" * 29),
            (INFINITY, "1/0"),
        ],
    )
    def test_text_of_each_kind(self, value, text):
        assert render(value) == text

    def test_other_rationals_are_read_by_value(self):
        class Tagged(Fraction):
            def __str__(self):
                return "tagged"

        assert render(Tagged(6, 4)) == "3/2"


class TestResidues:
    def test_negative_representative(self):
        assert residue_of(Fraction(-1, 3)) == ResidueSlope(Fraction(2, 3))

    def test_mod_one(self):
        assert residue_of(Fraction(7, 3)) == ResidueSlope(Fraction(1, 3))

    def test_infinity_passes_through(self):
        assert residue_of(INFINITY).is_infinite

    def test_str_forms(self):
        assert str(residue_of(Fraction(1, 3))) == "[ 1/3 ]"
        assert str(residue_of(Fraction(0))) == "[ 0 ]"
        assert str(residue_of(INFINITY)) == "[ 1/0 ]"

    def test_denominator_is_stored_q(self):
        assert residue_of(Fraction(-1, 3)).denominator == 3

    def test_infinite_residue_has_no_fraction_parts(self):
        with pytest.raises(NotFiniteError):
            residue_of(INFINITY).numerator
        with pytest.raises(NotFiniteError):
            residue_of(INFINITY).denominator

    def test_representative_range_enforced(self):
        with pytest.raises(ValueError):
            ResidueSlope(Fraction(3, 2))

    def test_negated(self):
        assert residue_of(Fraction(1, 3)).negated() == residue_of(Fraction(2, 3))
        assert residue_of(Fraction(1, 2)).negated() == residue_of(Fraction(1, 2))
        assert residue_of(INFINITY).negated().is_infinite

    @given(st.fractions(max_denominator=1000), st.integers(-100, 100))
    def test_integer_shift_invariance(self, r, k):
        assert residue_of(r) == residue_of(r + k)


class TestProjectiveAddInvert:
    def test_infinite_x_drops_the_term(self):
        assert projective_add_invert(Fraction(3), INFINITY) == Fraction(3)

    def test_zero_x_gives_infinity(self):
        assert projective_add_invert(Fraction(2), Fraction(0)) is INFINITY

    def test_hand_value(self):
        # 2 + 1/(-19/5) = 2 - 5/19
        assert projective_add_invert(Fraction(2), Fraction(-19, 5)) == Fraction(33, 19)

    def test_infinite_c_with_finite_inverse(self):
        assert projective_add_invert(INFINITY, Fraction(7)) is INFINITY
        assert projective_add_invert(INFINITY, INFINITY) is INFINITY

    def test_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            projective_add_invert(INFINITY, Fraction(0))

    @given(
        st.fractions(max_denominator=100, min_value=-100, max_value=100),
        st.fractions(max_denominator=100, min_value=-100, max_value=100).filter(bool),
    )
    def test_double_invert_recovers_sum(self, c, x):
        inner = projective_add_invert(Fraction(0), x)
        assert projective_add_invert(c, inner) == c + x
