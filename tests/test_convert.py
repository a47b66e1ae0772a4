import importlib.util
import random
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tunnelslopes import (
    ParityError,
    change_of_basis,
    conversion_word,
    convert_range,
    SL2Matrix,
    cf_eval,
    even_cf_expand,
    st_convert,
    sum_a,
    word_product,
)
from tunnelslopes.contfrac import _even_runs, _fold_runs
from tunnelslopes.convert import _range_pairs
from tunnelslopes.sl2 import _odd

KNOWN_CONVERSIONS = [
    (Fraction(55), Fraction(-55)),
    (Fraction(59, 35), Fraction(-299, 35)),
    (Fraction(-299, 35), Fraction(59, 35)),
    (Fraction(17259, 100102), Fraction(345051565, 100102)),
    (Fraction(1), Fraction(-1)),
    (Fraction(1, 2), Fraction(-1, 2)),
]


@pytest.mark.parametrize("value,expected", KNOWN_CONVERSIONS)
def test_known_values(value, expected):
    assert st_convert(value) == expected


@pytest.mark.parametrize("value,expected", KNOWN_CONVERSIONS)
def test_matrix_route_agrees_on_known_values(value, expected):
    # The first column of the inverse change-of-basis matrix, read through
    # the public matrix methods rather than st_convert's own -r/p.
    assert change_of_basis(value).inverse().first_column_slope() == expected
    assert cf_eval(conversion_word(value)) == expected


def test_conversion_word_shape():
    # 59/35 expands with four upper entries summing to 4 and odd denominator,
    # so the word leads with -8 and unwinds the expansion backwards.
    assert conversion_word(Fraction(59, 35)) == (-8, -1, -2, 2, -2, 2, -2, 4)


def test_even_numerator_rejected():
    with pytest.raises(ParityError):
        st_convert(Fraction(4, 7))
    with pytest.raises(ParityError, match="conversion needs an odd numerator, got 4/7"):
        conversion_word(Fraction(4, 7))


class TestConvertRange:
    def test_reference_block(self):
        expected = [
            (Fraction(17255, 100102), Fraction(-2843767, 100102)),
            (Fraction(17257, 100102), Fraction(-6541753, 100102)),
            (Fraction(17259, 100102), Fraction(345051565, 100102)),
            (Fraction(17261, 100102), Fraction(5593835, 100102)),
            (Fraction(17263, 100102), Fraction(1775313, 100102)),
            (Fraction(17265, 100102), Fraction(158447, 100102)),
        ]
        assert convert_range(100102, 17255, 17265) == expected

    def test_single_entry_ranges(self):
        assert convert_range(100102, 17261, 17261) == [
            (Fraction(17261, 100102), Fraction(5593835, 100102))
        ]
        assert convert_range(100102, 17265, 17265) == [
            (Fraction(17265, 100102), Fraction(158447, 100102))
        ]

    def test_even_q_skipped(self):
        assert convert_range(7, 2, 2) == []

    def test_even_denominator(self):
        assert convert_range(2, 1, 1) == [(Fraction(1, 2), Fraction(-1, 2))]

    def test_non_coprime_q_skipped(self):
        pairs = convert_range(9, 1, 9)
        assert [x.numerator for x, _ in pairs] == [1, 5, 7]

    def test_ascending_order(self):
        pairs = convert_range(35, -11, 11)
        numerators = [x.numerator * (35 // x.denominator) for x, _ in pairs]
        assert numerators == sorted(numerators)

    def test_streamed_pairs_hold_flat_memory(self):
        # The pairs of 40 000 odd q and of 4 000 peak alike: nothing is kept
        # per pair.
        def peak(q_hi):
            tracemalloc.start()
            try:
                deque(_range_pairs(7, 1, q_hi), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(80_000) - peak(8_000)) < 64 * 1024

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            convert_range(0, 1, 3)
        with pytest.raises(ValueError):
            convert_range(7, 3, 1)


odd_numerators = st.integers(-5000, 5000).map(lambda n: 2 * n + 1)
denominators = st.integers(1, 5000)


@given(odd_numerators, denominators)
@settings(max_examples=300)
def test_involution_and_modular_law(q, p):
    if gcd(abs(q), p) != 1:
        return
    x = Fraction(q, p)
    y = st_convert(x)
    assert y.denominator == p
    assert (x.numerator * y.numerator + 1) % p == 0
    assert st_convert(y) == x


@given(odd_numerators, denominators)
@settings(max_examples=200)
def test_route_equivalence(q, p):
    if gcd(abs(q), p) != 1:
        return
    x = Fraction(q, p)
    assert cf_eval(conversion_word(x)) == st_convert(x)


even_denominators = st.integers(1, 5000).map(lambda m: 2 * m)
# (p +- 1)/p and (2k+1) + 1/N have Theta(p) and Theta(N) long expansions;
# p and N are even so that the numerator is odd.
adversarial_slopes = st.one_of(
    st.builds(lambda p, sign: Fraction(p + sign, p), even_denominators, st.sampled_from((1, -1))),
    st.builds(lambda k, n: 2 * k + 1 + Fraction(1, n), st.integers(-500, 499), even_denominators),
    st.builds(Fraction, odd_numerators, denominators),
)


@given(adversarial_slopes, st.booleans())
@settings(max_examples=60, deadline=None)
def test_matrix_route_matches_word_reference(x, negate):
    # The reference route folds the change-of-basis word built here and
    # inverts it as the reversed negated word, which holds for odd lengths.
    x = -x if negate else x
    expansion = even_cf_expand(x)
    twist = 2 * sum_a(expansion) * (1 if x.denominator % 2 else -1)
    word = expansion.entries() + (twist,)
    assert len(word) % 2
    assert change_of_basis(x) == word_product(word)
    reference = word_product(-e for e in reversed(word)).first_column_slope()
    assert st_convert(x) == reference


@given(st.integers(-10**6, 10**6).map(lambda n: 2 * n + 1))
def test_odd_integers_negate(n):
    assert st_convert(Fraction(n)) == Fraction(-n)


def test_seeded_bulk_sample_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randint(-10**6, 10**6) | 1
        p = rng.randint(1, 10**6)
        if gcd(abs(q), p) != 1:
            continue
        x = Fraction(q, p)
        y = st_convert(x)
        assert st_convert(y) == x
        basis = change_of_basis(x)
        assert basis.determinant() == 1


HUGE = 10**300


@pytest.mark.parametrize("m", [1, -1, 7, -9])
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("n", [2, 4, 10, 998, 10**6, pytest.param(HUGE, id="10^300")])
def test_near_odd_integer_closed_form(m, eps, n):
    # m + eps/N with m odd and N even converts to eps*N + m - eps/N. At
    # N = 10^300 the expansion has about 10^300 entries; in run form it is a
    # handful of items, and conversion and change of basis take O(1) steps.
    x = m + Fraction(eps, n)
    y = st_convert(x)
    assert y == eps * n + m - Fraction(eps, n)
    assert (x.numerator * y.numerator + 1) % n == 0
    assert st_convert(y) == x
    basis = change_of_basis(x)
    assert basis.determinant() == 1
    assert basis.inverse().first_column_slope() == y


# The conversion as it was when every layer copied its argument into a new
# Fraction and checked it again: the references for the one-conversion path.


def reference_odd(x):
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"conversion needs an odd numerator, got {x}")
    return x


def reference_change_of_basis(x):
    x = Fraction(x)
    if x.numerator % 2 == 0:
        raise ParityError(f"change of basis needs an odd numerator, got {x}")
    runs = _even_runs(x)
    t = 2 * sum([a * n for a, _, n in runs]) * (1 if x.denominator % 2 else -1)
    q, s, p, r = _fold_runs(runs)
    return SL2Matrix(q, q * t + s, p, p * t + r)


def reference_st_convert(x):
    x = reference_odd(x)
    m = reference_change_of_basis(x)
    return Fraction(-m.r, m.p)


class Sub(Fraction):
    """A Fraction subclass, which the boundary converts like any other value."""


def outcome(f, x):
    """("value", result, its type) or ("error", exception type, message)."""
    try:
        result = f(x)
    except (ValueError, ArithmeticError, TypeError) as exc:
        return "error", type(exc), str(exc)
    return "value", result, type(result)


small = st.integers(-10**6, 10**6)
boundary_values = st.one_of(
    small,
    st.booleans(),
    st.fractions(),
    st.builds(Sub, small, st.integers(1, 10**6)),
    st.builds(lambda q, p: f"{q}/{p}", small, st.integers(1, 10**6)),
    st.builds(str, small),
    st.sampled_from(["x", "1/0", "", " 3/5 ", "2/4"]),
    st.builds(lambda q, p: Fraction(2 * q, 2 * p + 1), small, st.integers(0, 10**6)),  # even numerators
)


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def convert_pools():
    """Both convert benchmark pools (uniform and parabolic), seed 1."""
    workloads = perfbench_workloads()
    return workloads.build_uniform(1, False) + workloads.build_parabolic(1, False)


class TestExactBoundary:
    @given(boundary_values)
    @settings(max_examples=400)
    def test_matches_the_copying_references(self, x):
        for f, reference in [
            (lambda v: _odd(v, "conversion"), reference_odd),
            (st_convert, reference_st_convert),
            (change_of_basis, reference_change_of_basis),
        ]:
            got = outcome(f, x)
            assert got == outcome(reference, x)
            if f is change_of_basis and got[0] == "value":
                assert got[1].determinant() == 1

    def test_an_exact_fraction_passes_through(self):
        x = Fraction(59, 35)
        assert _odd(x, "conversion") is x
        sub = Sub(59, 35)
        assert type(_odd(sub, "conversion")) is Fraction and _odd(sub, "conversion") == sub

    def test_parity_messages(self):
        with pytest.raises(ParityError, match="^conversion needs an odd numerator, got 4/7$"):
            st_convert(Sub(4, 7))
        with pytest.raises(ParityError, match="^change of basis needs an odd numerator, got 2$"):
            change_of_basis("2")

    def test_benchmark_pools(self):
        pool = convert_pools()
        assert len(pool) > 2000
        for x in pool:
            m = change_of_basis(x)
            assert m == reference_change_of_basis(x)
            assert m.determinant() == m.inverse().determinant() == 1
            assert st_convert(x) == reference_st_convert(x) == m.inverse().first_column_slope()
