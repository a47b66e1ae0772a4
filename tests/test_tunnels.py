import copy
import pickle
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from tunnelslopes import (
    INFINITY,
    ParseError,
    ResidueSlope,
    Target,
    TunnelClass,
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
import tunnelslopes.cli
import tunnelslopes.tunnels
from tunnelslopes.rationals import _excerpt

from test_rationals import traced_peak


def params(m0, slopes=(), binaries=()):
    if m0 is INFINITY:
        m0 = ResidueSlope(INFINITY)
    else:
        m0 = residue_of(Fraction(m0))
    return TunnelParams(m0, tuple(Fraction(m) for m in slopes), tuple(binaries))


TREFOILISH = params(Fraction(1, 3), (3, Fraction(5, 3)), (0,))


class TestTunnelParams:
    def test_exact_tuples_are_kept(self):
        # The tuples are stored as runs; each run keeps its first element,
        # which the written-out tuple repeats.
        three, five_thirds = Fraction(3), Fraction(-5, 3)
        slopes, binaries = (three, Fraction(3), five_thirds, five_thirds), (0, 0, 1)
        t = TunnelParams(residue_of(Fraction(1, 3)), slopes, binaries)
        assert t.slope_runs == ((three, 2), (five_thirds, 2))
        assert t.slopes == slopes and [type(m) for m in t.slopes] == [Fraction] * 4
        assert [m is three for m in t.slopes[:2]] + [m is five_thirds for m in t.slopes[2:]] == [True] * 4
        assert t.binary_runs == ((0, 2), (1, 1))
        assert t.binaries == binaries and [type(s) for s in t.binaries] == [int] * 3

    def test_other_values_are_converted(self):
        class Tagged(Fraction):
            pass

        t = TunnelParams(residue_of(Fraction(1, 3)), [3, Tagged(5, 3), Fraction(7, 3)], [False, 1.0])
        assert t.slopes == (Fraction(3), Fraction(5, 3), Fraction(7, 3))
        assert [type(m) for m in t.slopes] == [Fraction] * 3
        assert t.binaries == (0, 1)
        assert [type(s) for s in t.binaries] == [int, int]

    def test_a_huge_run_compares_copies_and_pickles_by_its_runs(self):
        runs = ((Fraction(3), 10**15),), ((0, 10**15 - 1),)
        t = TunnelParams._new(residue_of(Fraction(1, 3)), *runs)
        twins = [pickle.loads(pickle.dumps(t, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(t), copy.deepcopy(t)]:
            assert type(twin) is TunnelParams and (twin.slope_runs, twin.binary_runs) == runs
            assert twin == t and is_amphichiral(twin) is False
        assert validate(t) == TunnelClass(TunnelKind.SEMISIMPLE, Target.KNOT)
        # The reads that write the tuple out cannot hold it.
        for read in (lambda: t.slopes, lambda: hash(t), lambda: repr(t), lambda: to_export(t)):
            with pytest.raises(MemoryError):
                read()

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
        [
            "",
            "1/3",
            "[ 1/3 ] 3",
            "[ 1/3 ], x",
            "[ 1/3 ], 3, 5/3 ; 2",
            "[ 0/0 ]",
            "[ 1/3 ], ",
            "[ 1/3 ], 3, 3/, 3",
            "[ 1/3 ], 3, 3,",
            "[ 1/3 ],, 3",
            "[ 1/3 ], 3, 3, , 3",
        ],
    )
    def test_parse_errors_carry_positions(self, text):
        got = outcome(parse, text)
        assert got[:2] == ("raised", ParseError)
        assert got == outcome(reference_parse, text)

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


# The per-element readers and writers that TunnelParams' runs replaced, kept
# as the references: each reads or writes every slope and bit on its own.


def reference_parse(text):
    """parse as it built one Fraction per slope token and one int per bit."""
    match = tunnelslopes.tunnels._RESIDUE_RE.match(text)
    if not match:
        raise ParseError("expected a residue of the form '[ p/q ]'", 0)
    parts = []
    for g in (1, 2):
        try:
            parts.append(int(match.group(g) or 1))
        except ValueError:
            raise ParseError(f"bad residue {_excerpt(match.group(g))}", match.start(g)) from None
    num, den = parts
    if num == den == 0:
        raise ParseError("residue 0/0 is degenerate", match.start(1))
    m0 = residue_of(INFINITY if den == 0 else Fraction(num, den))
    rest = text[match.end():]
    offset = match.end()
    slope_part, semicolon, bits_part = rest.partition(";")
    slopes = []
    stripped = slope_part.strip()
    if stripped:
        if not stripped.startswith(","):
            raise ParseError("expected ',' before the cabling slopes", offset)
        cursor = offset + slope_part.index(",") + 1
        for token in stripped[1:].split(","):
            cleaned = token.strip()
            if not cleaned:
                raise ParseError("empty slope entry", cursor)
            try:
                slopes.append(Fraction(cleaned))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad slope {_excerpt(cleaned)}", cursor) from None
            cursor += len(token) + 1
    binaries = ()
    if semicolon:
        bits = bits_part.strip()
        bit_pos = text.index(";", offset)
        if not bits:
            raise ParseError("missing binary string after ';'", bit_pos)
        if any(c not in "01" for c in bits):
            raise ParseError(f"binary string {_excerpt(bits)} must use only 0 and 1", bit_pos)
        binaries = tuple(int(c) for c in bits)
    return TunnelParams(m0, tuple(slopes), binaries)


def reference_validate(t):
    """validate as it read the written-out slopes and bits one by one."""
    slopes, binaries = t.slopes, t.binaries
    n = len(slopes)
    for s in binaries:
        if s not in (0, 1):
            raise ValidationError("binary-values", f"binaries must be 0 or 1, got {s}")
    expected = max(n - 1, 0)
    if len(binaries) != expected:
        raise ValidationError(
            "binaries-length", f"{n} cabling slopes need {expected} binaries, got {len(binaries)}"
        )
    if t.m0.is_infinite:
        if n:
            raise ValidationError("trivial-link-arity", "the infinite residue admits no further cablings")
        return TunnelClass(TunnelKind.TRIVIAL_LINK, Target.LINK)
    if t.m0.value == 0:
        if n:
            raise ValidationError("primitive-arity", "the zero residue admits no further cablings")
        return TunnelClass(TunnelKind.TRIVIAL_KNOT, Target.KNOT)
    q0 = t.m0.denominator
    if n == 0:
        if q0 % 2 == 1:
            return TunnelClass(TunnelKind.SIMPLE_KNOT, Target.KNOT)
        return TunnelClass(TunnelKind.SIMPLE_LINK, Target.LINK)
    if q0 % 2 == 0:
        raise ValidationError(
            "m0-denominator-parity", f"m0 = {t.m0} has even denominator, so its cabling ends the sequence"
        )
    for i, m in enumerate(slopes[:-1], start=1):
        if m.numerator % 2 == 0:
            raise ValidationError(
                "intermediate-numerator-parity",
                f"m{i} = {render(m)} has even numerator before the final cabling",
            )
    target = Target.KNOT if slopes[-1].numerator % 2 == 1 else Target.LINK
    kind = TunnelKind.SEMISIMPLE if all(s == 0 for s in binaries) else TunnelKind.REGULAR
    return TunnelClass(kind, target)


def reference_export(t):
    """to_export as it rendered every written-out slope."""
    cls = reference_validate(t)
    doc = {
        "m0": render(t.m0.value),
        "slopes": [render(m) for m in t.slopes],
        "binaries": list(t.binaries),
        "class": cls.kind.value,
        "target": cls.target.value,
    }
    if cls.target is Target.LINK:
        if t.m0.is_infinite:
            doc["linking_number"] = 0
        elif not t.slopes:
            doc["linking_number"] = t.m0.denominator // 2
        else:
            doc["linking_number"] = abs(t.slopes[-1].numerator) // 2
    return doc


def outcome(f, *args):
    """What f(*args) gives: ("value", result), or the error's class, text,
    and its rule or position."""
    try:
        return "value", f(*args)
    except (ValidationError, ParseError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "rule", None), getattr(exc, "position", None)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def assert_matches_the_references(t):
    """validate, mirror, is_amphichiral, serialize, to_export and parse of t
    against the per-element references, results and errors alike."""
    assert outcome(validate, t) == outcome(reference_validate, t)
    assert mirror(t) == reference_mirror(t)
    assert serialize(t) == reference_serialize(t)
    assert serialize(mirror(t)) == reference_serialize(reference_mirror(t))
    assert outcome(to_export, t) == outcome(reference_export, t)
    text = serialize(t)
    assert outcome(parse, text) == outcome(reference_parse, text)
    assert is_amphichiral(t) == (reference_mirror(t) == t)


# Slope texts with runs of equal tokens, equal values written apart ("3",
# "6/2", " 3"), tokens that are bad or empty, and even numerators.
TOKENS = ["3", " 3", "3 ", "6/2", "-3", "5/3", "10/6", "-5/3", "2", "4/3", "0", "1/0", "x", "", " ", "3/"]
RESIDUES = ["[ 1/3 ]", "[1/3]", " [ 2/5 ]", "[ 1/2 ]", "[ 0 ]", "[ 1/0 ]", "[ 7/3 ]", "[ 0/0 ]", "[ x ]", "1/3"]


def in_runs(values, max_runs):
    """Lists whose elements come in runs of one to four equal values."""
    runs = st.lists(st.tuples(values, st.integers(1, 4)), max_size=max_runs)
    return runs.map(lambda runs: [v for v, n in runs for _ in range(n)])


@st.composite
def tuple_texts(draw):
    text = draw(st.sampled_from(RESIDUES))
    tokens = draw(in_runs(st.sampled_from(TOKENS), 5))
    if tokens:
        text += draw(st.sampled_from([",", " ,", ", ", " "])) + ",".join(tokens)
    if draw(st.booleans()):
        text += draw(st.sampled_from([";", " ; ", " ;"])) + draw(st.text("01 2", max_size=6))
    return text


@given(tuple_texts())
@settings(max_examples=500)
def test_parse_matches_the_reference(text):
    got, want = outcome(parse, text), outcome(reference_parse, text)
    assert got == want
    if got[0] == "value":
        assert_matches_the_references(got[1])


@st.composite
def long_stretch_texts(draw):
    """Tuple texts with long stretches of equal tokens, with trailing commas,
    spaces and bad bits."""
    text = draw(st.sampled_from(RESIDUES[:4]))
    tokens = []
    for _ in range(draw(st.integers(0, 3))):
        token = draw(st.sampled_from(TOKENS[:11] + [" 3 ", "7/3", "123456789/2"]))
        tokens += [token] * draw(st.sampled_from([1, 2, 3, 255, 256, 257, 1023, 1024, 1025, 2500]))
    if tokens:
        text += ", " + ",".join(tokens) + draw(st.sampled_from(["", " ", ",", " \n", ", 3"]))
    if draw(st.booleans()):
        bits = draw(st.lists(st.tuples(st.sampled_from("01 2"), st.integers(1, 3000)), max_size=4))
        text += " ; " + "".join(bit * n for bit, n in bits)
    return text


@given(long_stretch_texts())
@settings(max_examples=150, deadline=None)
def test_parse_matches_the_reference_on_long_stretches(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


def test_parse_memory_follows_the_runs():
    # The 2 000 005-byte line of 499 999 equal slopes is one run of slopes
    # and one of bits. Reading it by index copies no part of it.
    line = serialize(two_bridge_slopes(make_form(2000001, 1999999)))
    assert len(line) == 2_000_005
    parse(line)
    start = time.perf_counter()
    t, peak = traced_peak(parse, line)
    seconds = time.perf_counter() - start
    assert peak < 1.5 * len(line)
    assert t.slope_runs == ((Fraction(1), 499_999),) and t.binary_runs == ((0, 499_998),)
    assert seconds < 1.0


@st.composite
def run_tuples(draw):
    """Tuples of runs of slopes and bits, valid or not."""
    m0 = draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(0), INFINITY, Fraction(4, 7)]))
    slopes = draw(in_runs(st.sampled_from([3, Fraction(5, 3), Fraction(-5, 3), 2, Fraction(4, 3), 0]), 4))
    bits = draw(in_runs(st.sampled_from([0, 1, 1, 2, -1]), 3))
    if draw(st.booleans()):
        bits = [0] * max(len(slopes) - 1, 0)
    return params(m0, slopes, bits)


@given(run_tuples())
@settings(max_examples=500)
def test_run_tuples_match_the_references(t):
    assert_matches_the_references(t)


@pytest.mark.parametrize(
    "text",
    [
        "[ 1/3 ], 3, 5/3 ; 0",
        "[ 1/2 ]",
        "[ 1/0 ]",
        "[ 0 ]",
        "[ 1/3 ], 3, 4/5 ; 1",
        "[ 1/3 ], 3, 3, 3, -7/4 ; 101",
        "[ 2/5 ], " + ", ".join(["-1"] * 40) + " ; " + "0" * 39,
        "[ 2/3 ], -3/2, 3, 3, 3, 3, 3, 7/3, 3, 3, 3, 3, 49/24",
        "[ 13/27 ], 3, 3, 3, 5/3, 3, 7/3, 15/8, -5/3, -1, -3",
        "[ 5/9 ], 11/5, 21/10, -23/11, -131/66",
        "[ 1/3 ], 3, 33, 3 ; 00",
        "[ 1/3 ], 3,3 ,3 ; 00",
        "[ 1/3 ], 3, 3, 3 ; 00",
        "[ 1/3 ], 3, 3/1, 3, 3 ; 000",
    ],
)
def test_golden_lines_match_the_references(text):
    assert outcome(parse, text) == outcome(reference_parse, text)
    assert_matches_the_references(parse(text))


@pytest.mark.parametrize(
    "text,line",
    [
        ("[ 1/3 ], 3, 3, 0 ; 00", "Semisimple, linking number 0 (final slope 0: accepted syntactically)"),
        ("[ 1/3 ], 0", "Semisimple, linking number 0 (final slope 0: accepted syntactically)"),
        ("[ 1/3 ], 3, 0/5, 0 ; 00", "error: intermediate-numerator-parity: m2 = 0 has even numerator before the final cabling"),
    ],
)
def test_classify_reads_the_final_slope_off_the_last_run(capsys, text, line):
    # A run of zeros is the final slope only when it has one slope.
    code = tunnelslopes.cli.main(["classify", text])
    out, err = capsys.readouterr()
    assert (code, (out or err).rstrip("\n")) == (0 if out else 1, line)
