from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from tunnelslopes import (
    INFINITY,
    ParseError,
    ResidueSlope,
    Target,
    TunnelKind,
    TunnelParams,
    ValidationError,
    is_amphichiral,
    linking_number,
    make_form,
    mirror,
    parse,
    render,
    residue_of,
    serialize,
    to_export,
    two_bridge_slopes,
    validate,
)
import tunnelslopes.tunnels


def params(m0, slopes=(), binaries=()):
    if m0 is INFINITY:
        m0 = ResidueSlope(INFINITY)
    else:
        m0 = residue_of(Fraction(m0))
    return TunnelParams(m0, tuple(Fraction(m) for m in slopes), tuple(binaries))


TREFOILISH = params(Fraction(1, 3), (3, Fraction(5, 3)), (0,))


class TestTunnelParams:
    def test_exact_tuples_are_kept(self):
        slopes, binaries = (Fraction(3), Fraction(-5, 3)), (0,)
        t = TunnelParams(residue_of(Fraction(1, 3)), slopes, binaries)
        assert t.slopes is slopes
        assert t.binaries is binaries

    def test_other_values_are_converted(self):
        class Tagged(Fraction):
            pass

        t = TunnelParams(residue_of(Fraction(1, 3)), [3, Tagged(5, 3), Fraction(7, 3)], [False, 1.0])
        assert t.slopes == (Fraction(3), Fraction(5, 3), Fraction(7, 3))
        assert [type(m) for m in t.slopes] == [Fraction] * 3
        assert t.binaries == (0, 1)
        assert [type(s) for s in t.binaries] == [int, int]

    def test_one_inexact_element_converts_the_tuple(self):
        slopes, binaries = (Fraction(3), 5, Fraction(7, 3)), (0, True)
        t = TunnelParams(residue_of(Fraction(1, 3)), slopes, binaries)
        assert t.slopes is not slopes and [type(m) for m in t.slopes] == [Fraction] * 3
        assert t.binaries == (0, 1) and [type(s) for s in t.binaries] == [int, int]


class TestValidate:
    def test_trivial_knot(self):
        cls = validate(params(0))
        assert cls.kind is TunnelKind.TRIVIAL_KNOT
        assert cls.target is Target.KNOT

    def test_trivial_link(self):
        cls = validate(params(INFINITY))
        assert cls.kind is TunnelKind.TRIVIAL_LINK
        assert cls.target is Target.LINK

    def test_hopf_link_is_simple_link(self):
        cls = validate(params(Fraction(1, 2)))
        assert cls.kind is TunnelKind.SIMPLE_LINK
        assert cls.target is Target.LINK

    def test_simple_knot(self):
        cls = validate(params(Fraction(2, 5)))
        assert cls.kind is TunnelKind.SIMPLE_KNOT
        assert cls.target is Target.KNOT

    def test_semisimple_knot(self):
        cls = validate(TREFOILISH)
        assert cls.kind is TunnelKind.SEMISIMPLE
        assert cls.target is Target.KNOT

    def test_regular(self):
        cls = validate(params(Fraction(1, 3), (3, Fraction(5, 3)), (1,)))
        assert cls.kind is TunnelKind.REGULAR

    def test_final_even_numerator_is_a_link(self):
        cls = validate(params(Fraction(1, 3), (3, Fraction(4, 3)), (0,)))
        assert cls.target is Target.LINK

    def test_intermediate_even_numerator_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate(params(Fraction(1, 3), (2, Fraction(5, 3)), (0,)))
        assert err.value.rule == "intermediate-numerator-parity"

    def test_zero_residue_cannot_continue(self):
        with pytest.raises(ValidationError) as err:
            validate(params(0, (3,)))
        assert err.value.rule == "primitive-arity"

    def test_infinite_residue_cannot_continue(self):
        with pytest.raises(ValidationError) as err:
            validate(params(INFINITY, (3,)))
        assert err.value.rule == "trivial-link-arity"

    def test_even_m0_denominator_cannot_continue(self):
        with pytest.raises(ValidationError) as err:
            validate(params(Fraction(1, 2), (3,)))
        assert err.value.rule == "m0-denominator-parity"

    def test_binaries_length_checked(self):
        with pytest.raises(ValidationError) as err:
            validate(params(Fraction(1, 3), (3, Fraction(5, 3))))
        assert err.value.rule == "binaries-length"

    def test_binary_values_checked(self):
        with pytest.raises(ValidationError) as err:
            validate(params(Fraction(1, 3), (3, Fraction(5, 3)), (2,)))
        assert err.value.rule == "binary-values"

    def test_final_zero_slope_accepted(self):
        cls = validate(params(Fraction(1, 3), (Fraction(0),)))
        assert cls.target is Target.LINK


class TestMirror:
    def test_residue_negated(self):
        assert mirror(params(Fraction(1, 3))) == params(Fraction(2, 3))

    def test_hopf_link_fixed(self):
        assert mirror(params(Fraction(1, 2))) == params(Fraction(1, 2))

    def test_entrywise(self):
        assert mirror(TREFOILISH) == params(
            Fraction(2, 3), (-3, Fraction(-5, 3)), (0,)
        )

    def test_involution(self):
        assert mirror(mirror(TREFOILISH)) == TREFOILISH

    def test_classification_preserved(self):
        assert validate(mirror(TREFOILISH)) == validate(TREFOILISH)

    def test_a_run_of_one_shared_slope_stays_shared(self):
        three, five_thirds = Fraction(3), Fraction(5, 3)
        t = TunnelParams(residue_of(Fraction(1, 3)), (three,) * 4 + (five_thirds,) * 3 + (three,), (0,) * 7)
        slopes = mirror(t).slopes
        assert slopes == (-three,) * 4 + (-five_thirds,) * 3 + (-three,)
        assert [m is slopes[0] for m in slopes[:4]] == [True] * 4
        assert [m is slopes[4] for m in slopes[4:7]] == [True] * 3
        assert slopes[3] is not slopes[4]
        assert mirror(mirror(t)) == t

    def test_mirror_of_a_two_bridge_tuple_renders_each_run_once(self, monkeypatch):
        t = two_bridge_slopes(make_form(200001, 199999))
        calls = []
        monkeypatch.setattr(tunnelslopes.tunnels, "render", lambda m: calls.append(m) or render(m))
        text = serialize(mirror(t))
        assert len(calls) == len({id(m) for m in t.slopes}) < 10
        assert text == reference_serialize(reference_mirror(t))
        assert mirror(mirror(t)) == t


class TestAmphichirality:
    def test_the_three_fixed_tuples(self):
        assert is_amphichiral(params(0))
        assert is_amphichiral(params(INFINITY))
        assert is_amphichiral(params(Fraction(1, 2)))

    def test_generic_simple_tunnel_is_chiral(self):
        assert not is_amphichiral(params(Fraction(1, 3)))


class TestLinkingNumber:
    def test_hopf_link(self):
        assert linking_number(params(Fraction(1, 2))) == 1

    def test_trivial_link(self):
        assert linking_number(params(INFINITY)) == 0

    def test_final_slope_numerator_halved(self):
        assert linking_number(params(Fraction(1, 3), (Fraction(4, 3),))) == 2

    def test_knot_rejected(self):
        with pytest.raises(ValueError):
            linking_number(TREFOILISH)


class TestSerialization:
    def test_serialize_with_binaries(self):
        assert serialize(TREFOILISH) == "[ 1/3 ], 3, 5/3 ; 0"

    def test_serialize_prints_unvalidated_bits_as_they_are(self):
        t = params(Fraction(1, 3), (3, Fraction(5, 3), 3), (2, 1))
        assert serialize(t) == "[ 1/3 ], 3, 5/3, 3 ; 21"

    def test_serialize_simple(self):
        assert serialize(params(Fraction(1, 2))) == "[ 1/2 ]"

    def test_serialize_single_cabling_has_no_bits(self):
        assert serialize(params(Fraction(1, 3), (3,))) == "[ 1/3 ], 3"

    def test_parse_simple(self):
        assert parse("[ 1/2 ]") == params(Fraction(1, 2))

    def test_parse_infinite(self):
        assert parse("[ 1/0 ]") == params(INFINITY)

    def test_parse_round_trip_example(self):
        assert parse(serialize(TREFOILISH)) == TREFOILISH

    def test_parse_residue_normalized_mod_one(self):
        assert parse("[ 7/3 ]") == params(Fraction(1, 3))

    @pytest.mark.parametrize(
        "text",
        ["", "1/3", "[ 1/3 ] 3", "[ 1/3 ], x", "[ 1/3 ], 3, 5/3 ; 2", "[ 0/0 ]", "[ 1/3 ], "],
    )
    def test_parse_errors_carry_positions(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position >= 0

    def test_export_knot(self):
        assert to_export(TREFOILISH) == {
            "m0": "1/3",
            "slopes": ["3", "5/3"],
            "binaries": [0],
            "class": "Semisimple",
            "target": "Knot",
        }

    def test_export_link_includes_linking_number(self):
        doc = to_export(params(Fraction(1, 2)))
        assert doc["m0"] == "1/2"
        assert doc["class"] == "SimpleLink"
        assert doc["target"] == "Link"
        assert doc["linking_number"] == 1

    def test_export_trivial_link(self):
        assert to_export(params(INFINITY))["m0"] == "1/0"


@st.composite
def valid_tunnels(draw):
    n = draw(st.integers(0, 3))
    if n == 0:
        kind = draw(st.sampled_from(["zero", "inf", "finite"]))
        if kind == "zero":
            return params(0)
        if kind == "inf":
            return params(INFINITY)
        q = draw(st.integers(2, 30))
        p = draw(st.integers(1, q - 1))
        assume(gcd(p, q) == 1)
        return params(Fraction(p, q))
    q0 = draw(st.integers(1, 14)) * 2 + 1
    p0 = draw(st.integers(1, q0 - 1))
    assume(gcd(p0, q0) == 1)
    slopes = []
    for _ in range(n - 1):
        num = draw(st.integers(-20, 20)) * 2 + 1
        den = draw(st.integers(1, 20))
        slopes.append(Fraction(num, den))
    final = draw(st.fractions(min_value=-20, max_value=20, max_denominator=20))
    slopes.append(final)
    binaries = tuple(draw(st.integers(0, 1)) for _ in range(n - 1))
    return params(Fraction(p0, q0), slopes, binaries)


@given(valid_tunnels())
def test_mirror_involution_and_class_preservation(t):
    assert mirror(mirror(t)) == t
    assert validate(mirror(t)) == validate(t)


def reference_mirror(t):
    """mirror as it negated every slope on its own."""
    return TunnelParams(t.m0.negated(), tuple(-m for m in t.slopes), t.binaries)


def reference_serialize(t):
    """serialize as it rendered every slope and wrote one str() per bit."""
    text = ", ".join([str(t.m0), *map(render, t.slopes)])
    if len(t.slopes) >= 2:
        text += " ; " + "".join(map(str, t.binaries))
    return text


@given(valid_tunnels())
def test_mirror_and_serialize_match_the_references(t):
    assert mirror(t) == reference_mirror(t)
    assert serialize(mirror(t)) == reference_serialize(reference_mirror(t))
    assert to_export(mirror(t)) == to_export(reference_mirror(t))


@given(st.lists(st.integers(), min_size=2, max_size=6), st.lists(st.integers(), max_size=6))
def test_serialize_writes_any_bits_as_str_does(slopes, bits):
    # serialize does not validate, so any ints may stand in the bits.
    t = params(Fraction(1, 3), slopes, bits)
    assert serialize(t) == reference_serialize(t)


@given(valid_tunnels())
def test_serialize_parse_round_trip(t):
    assert parse(serialize(t)) == t
