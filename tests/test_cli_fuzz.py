"""Fuzz the command line's output contract across commands.

Every command exits 0 with a non-empty stdout and nothing on stderr, or 1
with nothing on stdout and one error line on stderr (one JSON object under
--json). On success the commands' identities hold: ``convert`` is an
involution, ``mirror`` of ``mirror``'s output prints the input's serialized
form, and the two lines of ``slopes --both`` are equal. Values follow "--",
so one that starts with a dash is read as a value, as a user would pass it.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import tunnelslopes.rationals
from tunnelslopes import parse, render, serialize
from tunnelslopes.cli import _strip_parens, main

# Digits, signs, '/', 'e', parentheses and whitespace, the degenerate values
# 1/0 and 0/0, and a non-ASCII digit (ARABIC-INDIC DIGIT THREE).
SYMBOLS = list("0123456789+-/e() \t\n") + ["1/0", "0/0", "٣"]
FIFTY_DIGITS = st.integers(10**49, 10**50 - 1).map(str)
# 4400 digits, past the 4300-digit int/str limit that arguments are read under.
HUGE_DIGITS = FIFTY_DIGITS.map(lambda digits: digits * 88)
# Small odd q/p and small integers, so that many examples get past the
# parity and range checks.
ODD = st.integers(-100, 99).map(lambda k: 2 * k + 1)
VALUES = st.one_of(
    st.builds(lambda q, p: f"{q}/{p}", ODD, st.integers(1, 59)),
    st.integers(-199, 199).map(str),
    st.lists(st.one_of(st.sampled_from(SYMBOLS), FIFTY_DIGITS, HUGE_DIGITS), max_size=6).map("".join),
)
MEMORY = 1 << 20  # so a result too long to write out fails at once


@st.composite
def tuple_texts(draw):
    """Tuple texts with stretches of equal slope tokens and bits of the right
    length or not, or a value in place of the whole tuple."""
    if draw(st.integers(0, 4)) == 0:
        return draw(VALUES)
    tokens = []
    for token, count in draw(st.lists(st.tuples(VALUES, st.integers(1, 3)), max_size=4)):
        tokens += [token] * count
    text = f"[ {draw(VALUES)} ]" + "".join(", " + token for token in tokens)
    if len(tokens) >= 2 or draw(st.booleans()):
        bits = draw(st.one_of(st.just("0" * max(len(tokens) - 1, 0)), st.text("01", max_size=4)))
        text += " ; " + bits
    return text


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["convert", "convert-range", "slopes", "classify", "mirror", "link"]))
    if command == "convert":
        return [command, "--", draw(VALUES)]
    if command == "convert-range":
        p, q_lo = draw(VALUES), draw(VALUES)
        try:  # a small range, never a long one
            q_hi = str(int(q_lo) + draw(st.integers(-1, 6)))
        except ValueError:
            q_hi = draw(VALUES)
        return [command, "--", p, q_lo, q_hi]
    flags = draw(st.sampled_from([[], ["--both"]] if command == "slopes" else [[], ["--json"]]))
    return [command, *flags, "--", draw(VALUES if command == "slopes" else tuple_texts())]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tunnelslopes.rationals, "_budget", MEMORY)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(command_lines())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_every_command_keeps_the_output_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        if "--json" in argv:
            assert list(json.loads(err)) == ["error", "rule", "position", "message"]
        else:
            assert err.startswith("error: ")
        return
    assert err == ""
    command, value = argv[0], argv[-1]
    if command == "convert-range":  # a range with no odd q prime to p prints nothing
        p, q_lo, q_hi = (int(arg) for arg in argv[2:])
        firsts = [line.split(", ")[0] for line in out.splitlines()]
        assert firsts == [render(Fraction(q, p)) for q in range(q_lo, q_hi + 1) if q % 2 and gcd(q, p) == 1]
        return
    assert out.endswith("\n") and out != "\n"
    if command == "convert":
        code, back, err = run(["convert", "--", out.rstrip("\n")])
        assert (code, err) == (0, "")
        assert Fraction(back) == Fraction(_strip_parens(value))
    elif command == "mirror" and "--json" not in argv:
        assert run(["mirror", "--", out.rstrip("\n")]) == (0, serialize(parse(value)) + "\n", "")
    elif command == "slopes" and "--both" in argv:
        first, second = out.splitlines()
        assert first == second
    elif "--json" in argv:
        json.loads(out)
