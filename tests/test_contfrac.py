import copy
import pickle
import random
from collections import namedtuple
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from tunnelslopes import (
    INFINITY,
    EvenCF,
    IndeterminateFormError,
    SL2Matrix,
    cf_eval,
    change_of_basis,
    conversion_word,
    even_cf_expand,
    make_form,
    st_convert,
    sum_a,
    two_bridge_slopes,
    word_product,
)
from tunnelslopes import contfrac
from tunnelslopes.contfrac import _even_runs, _fold, _fold_runs
from tunnelslopes.rationals import _add_run
from tunnelslopes.sl2 import _basis, _twist

from test_acceptance import sample_odd_slopes
from test_rationals import projective_add_invert


def reference_fold(word):
    """Right-to-left c + 1/x steps, the reference for cf_eval's integer fold."""
    acc = word[-1] if word[-1] is INFINITY else Fraction(word[-1])
    for c in reversed(word[:-1]):
        acc = projective_add_invert(c, acc)
    return acc


projective_entries = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([0, INFINITY]),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


class TestCfEval:
    def test_folded_value(self):
        assert cf_eval([2, -4, 4, 1]) == Fraction(33, 19)

    def test_trailing_zero_collapses(self):
        assert cf_eval([3, 2, 0]) == Fraction(3)

    @pytest.mark.parametrize("entry", [Fraction(5), Fraction(-7, 3), INFINITY])
    def test_single_entry(self, entry):
        assert cf_eval([entry]) == entry

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cf_eval([])

    def test_indeterminate_step_surfaces(self):
        with pytest.raises(IndeterminateFormError):
            cf_eval([INFINITY, 0])

    def test_infinite_tail_is_dropped(self):
        assert cf_eval([7, INFINITY]) == Fraction(7)

    def test_tuple_entry_rejected(self):
        with pytest.raises(TypeError):
            cf_eval([2, (1, 3)])

    def test_run_is_not_an_entry(self):
        # Runs fold through _fold_runs only; a word never carries one.
        with pytest.raises(TypeError):
            cf_eval([(1, -1, 2)])
        with pytest.raises(TypeError):
            word_product([(1, 2)])

    @given(st.lists(projective_entries, min_size=1, max_size=7))
    @settings(max_examples=500)
    def test_matches_reference_fold(self, word):
        try:
            expected = reference_fold(word)
        except IndeterminateFormError:
            with pytest.raises(IndeterminateFormError):
                cf_eval(word)
            return
        got = cf_eval(word)
        assert type(got) is type(expected)
        assert got == expected


# The expansions below were derived by hand with the descent rules and are
# certified wholesale by the round-trip and enumeration checks.
EXPANSIONS = {
    Fraction(33, 19): ((1, 2), (-2, 1), True),
    Fraction(3): ((1,), (1,), True),
    Fraction(2): ((1,), (), False),
    Fraction(1, 3): ((0,), (3,), True),
    Fraction(55): ((27,), (1,), True),
    Fraction(1): ((0,), (1,), True),
    Fraction(-1): ((0,), (-1,), True),
    Fraction(1, 2): ((0,), (2,), True),
    Fraction(-3): ((-1,), (-1,), True),
    Fraction(3, 2): ((1,), (-2,), True),
    Fraction(0): ((0,), (), False),
}


class TestEvenCfExpand:
    @pytest.mark.parametrize("value,expected", sorted(EXPANSIONS.items()))
    def test_known_expansions(self, value, expected):
        e = even_cf_expand(value)
        assert (e.a_entries, e.b_entries, e.has_final_b) == expected

    def test_word_form(self):
        assert even_cf_expand(Fraction(33, 19)).entries() == (2, -4, 4, 1)
        assert str(even_cf_expand(Fraction(33, 19))) == "[2, -4, 4, 1]"

    @given(st.fractions(max_denominator=10**6, min_value=-10**6, max_value=10**6))
    @settings(max_examples=300)
    def test_round_trip(self, x):
        e = even_cf_expand(x)
        assert cf_eval(e.entries()) == x

    @given(st.fractions(max_denominator=10**4, min_value=-10**4, max_value=10**4))
    def test_parity_rules(self, x):
        e = even_cf_expand(x)
        assert e.has_final_b == (x.numerator % 2 == 1)
        if e.has_final_b:
            assert e.b_entries[-1] % 2 == x.denominator % 2


class TestSumA:
    def test_values(self):
        assert sum_a(even_cf_expand(Fraction(33, 19))) == 3
        assert sum_a(even_cf_expand(Fraction(2))) == 1
        assert sum_a(even_cf_expand(Fraction(1, 3))) == 0


class TestNegateCf:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_negates_the_value(self, word):
        # Entrywise negation of a word negates its value.
        try:
            value = cf_eval(word)
        except IndeterminateFormError:
            assume(False)
        negated = cf_eval([-c for c in word])
        if value is INFINITY:
            assert negated is INFINITY
        else:
            assert negated == -value


@given(
    st.lists(st.integers(-6, 6), max_size=3),
    st.lists(st.integers(-6, 6), min_size=1, max_size=3),
    st.integers(-6, 6),
    st.integers(-6, 6),
)
def test_zero_entry_collapse(prefix, suffix, c, d):
    spliced = prefix + [c, 0, d] + suffix
    merged = prefix + [c + d] + suffix
    try:
        left = cf_eval(spliced)
        right = cf_eval(merged)
    except IndeterminateFormError:
        assume(False)
    assert left == right or (left is INFINITY and right is INFINITY)


def reference_even_cf(a_entries, b_entries, has_final_b) -> EvenCF:
    """The EvenCF of an expansion given by its entries, checked entry by entry
    as EvenCF's own constructor did before it took only runs: the reference
    for the run rules and the way the tests build an expansion by hand."""
    a_entries, b_entries = tuple(a_entries), tuple(b_entries)
    k = len(a_entries)
    if k == 0:
        raise ValueError("an even expansion needs at least one a entry")
    expected_b = k - 1 + (1 if has_final_b else 0)
    if len(b_entries) != expected_b:
        raise ValueError(
            f"expected {expected_b} b entries for k={k}, got {len(b_entries)}"
        )
    if 0 in islice(a_entries, 1, None):
        raise ValueError("only the leading a entry may be zero")
    if 0 in b_entries:
        raise ValueError("b entries must be nonzero")
    if has_final_b:
        a_last, b_last = a_entries[-1], b_entries[-1]
        if abs(b_last) == 1 and a_last != 0 and (a_last > 0) != (b_last > 0):
            raise ValueError(
                f"closing pair ({a_last}, {b_last}) must share a sign when bk is +-1"
            )
    runs: list = []
    for a, b in zip_longest(a_entries, b_entries):
        _add_run(runs, (a, b, 1))
    return EvenCF(tuple(runs))


class TestEvenCfValidation:
    def test_interior_a_zero_rejected(self):
        with pytest.raises(ValueError):
            reference_even_cf((1, 0), (2, 1), True)

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            reference_even_cf((1, 2), (0, 1), True)

    @pytest.mark.parametrize(
        "a_entries,b_entries,has_final_b,message",
        [
            ((0, 0), (2, 1), True, "only the leading a entry may be zero"),
            ((0, 3, 0, 1), (2, 2, 2, 1), True, "only the leading a entry may be zero"),
            ((1, 2), (2, 0), True, "b entries must be nonzero"),
            ((1, 2), (0,), False, "b entries must be nonzero"),
        ],
    )
    def test_zero_entry_messages(self, a_entries, b_entries, has_final_b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reference_even_cf(a_entries, b_entries, has_final_b)

    def test_sign_rule_enforced(self):
        with pytest.raises(ValueError):
            reference_even_cf((1,), (-1,), True)

    def test_zero_leading_a_with_unit_b_allowed(self):
        assert cf_eval(reference_even_cf((0,), (-1,), True).entries()) == Fraction(-1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reference_even_cf((1, 2), (1,), True)


def reference_even_cf_expand(x) -> EvenCF:
    """The plain descent, one Fraction step per entry: the reference for the
    run-form descent behind even_cf_expand, st_convert and change_of_basis."""
    x = Fraction(x)
    a: list = []
    b: list = []
    at_a_slot = True
    while True:
        u, v = x.numerator, x.denominator
        if v == 1:
            if not at_a_slot:
                b.append(u)
            elif u % 2 == 0:
                a.append(u // 2)
            else:
                sign = 1 if u > 0 else -1
                a.append((u - sign) // 2)
                b.append(sign)
            break
        e = 2 * ((u + v) // (2 * v))
        (a if at_a_slot else b).append(e // 2)
        x = 1 / (x - e)
        at_a_slot = not at_a_slot
    return reference_even_cf(a, b, len(b) == len(a))


def regular_cf_value(quotients):
    x = Fraction(quotients[-1])
    for c in reversed(quotients[:-1]):
        x = c + 1 / x
    return x


signs = st.sampled_from((1, -1))
# Runs of pairs (2s, -2s) come from values near odd integers, (p +- 1)/p and
# (2k+1) +- 1/N, and from large regular partial quotients anywhere in the
# expansion, so they start at a slots and at b slots and have odd and even
# lengths; huge random numerators and odd integers have few or none.
run_families = st.one_of(
    st.builds(lambda p, d, s: s * Fraction(p + d, p), st.integers(1, 3000), signs, signs),
    st.builds(lambda k, n, d: 2 * k + 1 + Fraction(d, n), st.integers(-50, 50), st.integers(2, 3000), signs),
    st.builds(
        lambda qs, s: s * regular_cf_value(qs),
        st.lists(st.integers(1, 600), min_size=1, max_size=6),
        signs,
    ),
    st.builds(Fraction, st.integers(-10**80, 10**80), st.integers(1, 10**80)),
    st.integers(-10**6, 10**6).map(lambda n: Fraction(2 * n + 1)),
)


# The run-item descent that even_cf_expand and change_of_basis used before the
# descent wrote EvenCF's runs itself: a list of ints and _Run items, the sum of
# the a entries kept alongside, a fold with a _Run step and a second pass that
# turns the items into runs of blocks. The reference for _even_runs,
# _fold_runs and change_of_basis at any length, since neither side writes the
# entries out.

# ``count`` consecutive pairs (2*sign, -2*sign) of a raw even word.
_Run = namedtuple("_Run", ("sign", "count"))


def reference_items(x):
    """The raw even expansion of x in run-item form, and the sum of its a entries."""
    x = Fraction(x)
    items: list = []
    total_a = 0
    at_a_slot = True
    while True:
        u, v = x.numerator, x.denominator
        if v == 1:
            if at_a_slot and u % 2:
                sign = 1 if u > 0 else -1
                items += (u - sign, sign)  # 2ak + 1/bk with bk = sign
                total_a += (u - sign) // 2
            else:
                items.append(u)  # closing 2ak, or bk with its parity forced
                total_a += u // 2 if at_a_slot else 0
            return items, total_a
        d = abs(u) - v
        if 0 < 4 * d <= v:
            # 1 < |x| < 2 with at least one whole pair (2s, -2s) ahead.
            s = 1 if u > 0 else -1
            n = (v - 2 * d) // (2 * d)
            items.append(_Run(s, n))
            total_a += s * n if at_a_slot else -s * n
            x = Fraction(u - 2 * n * s * d, v - 2 * n * d)
            continue
        e = 2 * ((u + v) // (2 * v))
        items.append(e)
        total_a += e // 2 if at_a_slot else 0
        x = 1 / (x - e)
        at_a_slot = not at_a_slot


def reference_item_fold(items):
    """The fold of a word of ints and _Run items; a _Run of n pairs (2g, -2g)
    multiplies by their closed form (-1)^n (1 + 2n, -2gn / 2gn, 1 - 2n)."""
    q, s, p, r = 1, 0, 0, 1
    for c in items:
        if type(c) is _Run:
            j = 2 * c.count
            k = j * c.sign
            q, s, p, r = q + j * q + k * s, s - j * s - k * q, p + j * p + k * r, r - j * r - k * p
            if c.count % 2:
                q, s, p, r = -q, -s, -p, -r
        else:
            q, s, p, r = q * c + s, q, p * c + r, p
    return q, s, p, r


def reference_items_to_runs(items):
    """The runs (a, b, count) of a run-item expansion."""
    *body, last = items
    runs: list = []
    a = None  # the a entry of a block whose b is still to come
    for c in body:
        if type(c) is not _Run:
            if a is None:
                a = c // 2
            else:
                _add_run(runs, (a, c // 2, 1))
                a = None
        elif a is None:
            # n pairs (2s, -2s) from an a slot are n blocks (s, -s).
            _add_run(runs, (c.sign, -c.sign, c.count))
        else:
            # From a b slot they close the open block with s, fill n - 1
            # blocks (-s, s) and open one with -s.
            _add_run(runs, (a, c.sign, 1))
            if c.count > 1:
                _add_run(runs, (-c.sign, c.sign, c.count - 1))
            a = -c.sign
    if a is None:
        _add_run(runs, (last // 2, None, 1))
    else:
        _add_run(runs, (a, last, 1))  # the closing bk is stored whole
    return tuple(runs)


def reference_change_of_basis(x):
    """change_of_basis folded from the run items and the twist, with the
    columns swapped as for a word of odd length."""
    items, total_a = reference_items(x)
    twist = 2 * total_a * (1 if x.denominator % 2 else -1)
    s, q, r, p = reference_item_fold(items + [twist])
    return SL2Matrix(q, s, p, r)


def assert_matches_run_items(x):
    """The runs, twist sum and change of basis of x against the run-item
    descent; neither side writes the entries out."""
    items, total_a = reference_items(x)
    e = even_cf_expand(x)
    assert e.runs == _even_runs(x) == reference_items_to_runs(items)
    assert sum_a(e) == total_a
    assert _fold_runs(e.runs) == reference_item_fold(items)
    if x.numerator % 2:
        assert change_of_basis(x) == reference_change_of_basis(x)


def reference_conversion_word(x, expansion):
    lead = 2 * sum(expansion.a_entries) * (-1 if x.denominator % 2 else 1)
    return (lead,) + tuple(-c for c in reversed(expansion.entries()[1:]))


def reference_run_form_convert(x):
    """The conversion word built and folded in the run-item form of the
    descent, never written out: a route to st_convert's value that does not
    go through the change-of-basis matrix, for expansions of any length.

    A run of pairs (2g, -2g) is its own reversed negation, so it passes into
    the word unchanged; a run that opens the expansion gives up its first
    entry 2a1 and leaves -2g followed by one pair fewer.
    """
    items, total_a = reference_items(x)
    lead = 2 * total_a * (-1 if x.denominator % 2 else 1)
    first, rest = items[0], items[1:]
    if type(first) is _Run:
        rest = [-2 * first.sign, _Run(first.sign, first.count - 1)] + rest
    q, _, p, _ = reference_item_fold([lead] + [c if type(c) is _Run else -c for c in reversed(rest)])
    return Fraction(q, p)


# The reference descent writes every entry out, one Fraction step each; a
# random 80-digit fraction within 10^-80 of 1 or -1 has about 10^80 of them.
REFERENCE_CAP = 10**5


def entry_count(x, cap=REFERENCE_CAP):
    """The length of x's even expansion, or cap + 1 if it is longer, counted
    by a plain descent on ints that stops there."""
    u, v = x.numerator, x.denominator
    count = 0
    while v != 1:
        if count == cap:
            return cap + 1
        e = 2 * ((u + v) // (2 * v))
        u, v = (v, u - e * v) if u > e * v else (-v, e * v - u)
        count += 1
    # The closing step: a lone b entry, an even a entry, or an odd integer
    # split into a and b entries.
    return min(count + (2 if count % 2 == 0 and u % 2 else 1), cap + 1)


class TestRunFormAgainstReference:
    @given(run_families)
    @settings(max_examples=400, deadline=None)
    def test_expansion_and_twist_sum(self, x):
        assert_matches_run_items(x)
        q, _, p, _ = _fold_runs(_even_runs(x))
        assert Fraction(q, p) == x
        if entry_count(x) > REFERENCE_CAP:
            return
        reference = reference_even_cf_expand(x)
        assert even_cf_expand(x) == reference
        assert sum_a(even_cf_expand(x)) == sum(reference.a_entries)

    def test_matches_run_items_near_one(self):
        for x in NEAR_ONE_FAMILY:
            assert_matches_run_items(x)

    def test_matches_run_items_on_the_acceptance_seeds(self):
        for x in sample_odd_slopes(10**4, seed=20260808):
            assert_matches_run_items(x)

    @given(run_families)
    @settings(max_examples=400, deadline=None)
    def test_conversion_and_change_of_basis(self, x):
        assume(x.numerator % 2)
        converted = st_convert(x)
        assert converted == reference_run_form_convert(x)
        if entry_count(x) > REFERENCE_CAP:
            # Facts that write nothing out: the conversion is an involution
            # on q/p with q * q' = -1 (mod p).
            assert st_convert(converted) == x
            assert converted.denominator == x.denominator
            assert (x.numerator * converted.numerator + 1) % x.denominator == 0
            return
        reference = reference_even_cf_expand(x)
        word = reference_conversion_word(x, reference)
        assert conversion_word(x) == word
        assert converted == cf_eval(word)
        assert change_of_basis(x) == word_product(reference.entries() + (-word[0],))

    @pytest.mark.parametrize(
        "x",
        [Fraction(33, 19), Fraction(-7, 5), Fraction(4), Fraction(-5), Fraction(1), Fraction(3, 2)]
        + [s * Fraction(p + d, p) for p in (1, 2, 3, 10, 999) for s in (1, -1) for d in (1, -1)],
    )
    def test_entry_count_is_the_reference_length(self, x):
        length = len(reference_even_cf_expand(x).entries())
        assert entry_count(x) == entry_count(x, length) == length
        assert entry_count(x, length - 1) == length

    @pytest.mark.parametrize("x", [Fraction(10**80 + 1, 10**80), Fraction(-(10**80) + 1, 10**80)])
    def test_entry_count_stops_at_the_cap(self, x):
        # About 10^80 entries, counted only up to the cap.
        assert entry_count(x) == REFERENCE_CAP + 1

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("count", range(1, 8))
    def test_run_fold_is_the_pair_fold(self, sign, count):
        # A run of blocks (g, -g) first, in the middle, before the closing
        # block, and last, where its final block folds on its own: the fold
        # does not read the sign rule that makes that last one invalid.
        pairs = [2 * sign, -2 * sign] * count
        run = (sign, -sign, count)
        assert _fold_runs((run, (3, None, 1))) == _fold(pairs + [6])
        assert _fold_runs(((3, 2, 1), run, (-5, -3, 1))) == _fold([6, 4] + pairs + [-10, -3])
        assert _fold_runs(((0, 2, 1), run, (2, 1, 1))) == _fold([0, 4] + pairs + [4, 1])
        assert _fold_runs(((3, 2, 1), run)) == _fold([6, 4] + pairs[:-1] + [-sign])

    def test_runs_at_both_slots(self):
        # (p + 1)/p opens on a run at an a slot, (p - 1)/p puts it at a b slot.
        e = even_cf_expand(Fraction(10**6 + 1, 10**6))
        assert e.runs == ((1, -1, 499_999), (1, -2, 1)) and sum_a(e) == 500_000
        e = even_cf_expand(Fraction(10**6 - 1, 10**6))
        assert e.runs == ((0, 1, 1), (-1, 1, 499_998), (-1, 2, 1)) and sum_a(e) == -499_999


def reference_entry_writer(x):
    """The a entries, b entries and has_final_b of x, written entry by entry
    from the run-item descent as even_cf_expand wrote them before EvenCF
    stored runs: the reference for the run-form writer."""
    items = reference_items(x)[0]
    halves = ([], [])
    slot = 0
    for c in items:
        if type(c) is _Run:
            halves[slot].extend([c.sign] * c.count)
            halves[1 - slot].extend([-c.sign] * c.count)
        else:
            halves[slot].append(c // 2)
            slot = 1 - slot
    a, b = halves
    has_final_b = slot == 0
    if has_final_b:
        b[-1] = items[-1]
    return tuple(a), tuple(b), has_final_b


def reference_entries(a_entries, b_entries, has_final_b):
    """The raw word, interleaved entry by entry."""
    word = []
    for i, a in enumerate(a_entries):
        word.append(2 * a)
        if i < len(a_entries) - 1:
            word.append(2 * b_entries[i])
    if has_final_b:
        word.append(b_entries[-1])
    return tuple(word)


def assert_matches_entry_writer(x):
    """even_cf_expand against the entry-by-entry writer: the runs are maximal,
    the entries read back, and an EvenCF built from the entries is equal and
    hashes the same."""
    e = even_cf_expand(x)
    a, b, has_final_b = reference_entry_writer(x)
    assert all(n >= 1 for _, _, n in e.runs)
    assert all(run[:2] != below[:2] for below, run in zip(e.runs, e.runs[1:]))
    assert (e.a_entries, e.b_entries, e.has_final_b) == (a, b, has_final_b)
    assert e.entries() == reference_entries(a, b, has_final_b)
    assert sum_a(e) == sum(a)
    from_entries = reference_even_cf(a, b, has_final_b)
    assert from_entries == e and hash(from_entries) == hash(e)
    assert from_entries.runs == e.runs


# (N + 2)/N for odd N, of either sign: about N entries, nearly all of them
# pairs (2, -2) from an a slot, and N/(N + 2), whose run starts at a b slot.
NEAR_ONE_FAMILY = [
    s * Fraction(n + 2, n) ** p
    for n in [*range(1, 300, 2), 999, 10**4 + 1, 10**5 - 1]
    for s in (1, -1)
    for p in (1, -1)
]


class TestRunStorage:
    @given(run_families)
    @settings(max_examples=400, deadline=None)
    def test_matches_entry_writer(self, x):
        # The reference writes every entry out, and a random 80-digit
        # fraction within 10^-80 of 1 or -1 has about 10^80 of them.
        assume(sum(2 * c.count if type(c) is _Run else 1 for c in reference_items(x)[0]) <= 10**5)
        assert_matches_entry_writer(x)

    def test_matches_entry_writer_near_one(self):
        for x in NEAR_ONE_FAMILY:
            assert_matches_entry_writer(x)

    def test_a_run_of_pairs_is_one_item(self):
        e = even_cf_expand(Fraction(10**6 + 1, 10**6))
        assert e.runs == ((1, -1, 499_999), (1, -2, 1))
        e = even_cf_expand(Fraction(10**6 - 1, 10**6))
        assert e.runs == ((0, 1, 1), (-1, 1, 499_998), (-1, 2, 1))

    def test_closing_block_joins_an_equal_run(self):
        # 49/22 = [2, 4, 2, 2]: the closing bk = 2 stored whole equals the
        # halved b1 = 2, so both blocks are (1, 2).
        e = even_cf_expand(Fraction(49, 22))
        assert e.runs == ((1, 2, 2),)
        assert (e.a_entries, e.b_entries, e.entries()) == ((1, 1), (2, 2), (2, 4, 2, 2))

    def test_no_final_b(self):
        e = even_cf_expand(Fraction(2))
        assert e.runs == ((1, None, 1),)
        assert (e.a_entries, e.b_entries, e.has_final_b, e.entries()) == ((1,), (), False, (2,))

    def test_entries_constructor_merges_runs(self):
        e = reference_even_cf((1, 1, 1, 2), (-1, -1, -2, 1), True)
        assert e.runs == ((1, -1, 2), (1, -2, 1), (2, 1, 1))
        assert e == even_cf_expand(cf_eval(e.entries()))

    def test_equality_and_hash_are_by_value(self):
        assert reference_even_cf([1, 2], [-2, 1], True) == reference_even_cf((1, 2), (-2, 1), True)
        assert len({EvenCF(((1, -2, 1), (2, 1, 1))), even_cf_expand(Fraction(33, 19))}) == 1
        assert reference_even_cf((1,), (), False) != reference_even_cf((1,), (1,), True)


def run_violations(runs):
    """The rules of an even expansion's runs that these runs break, read run
    by run, so at any length: the checks of the entry constructor, which
    ``even_cf_expand`` no longer passes through, plus maximality."""
    if not runs:
        return ["no blocks"]
    broken = []
    if any(run[:2] == below[:2] for below, run in zip(runs, runs[1:])):
        broken.append("adjacent runs of one block")
    if any(n < 1 for _, _, n in runs):
        broken.append("a count below 1")
    if any(a == 0 for a, _, _ in runs[1:]) or (runs[0][0] == 0 and runs[0][2] > 1):
        broken.append("a zero a entry after the first")
    if any(b == 0 for _, b, _ in runs):
        broken.append("a zero b entry")
    a, b, n = runs[-1]
    if any(b is None for _, b, _ in runs[:-1]) or (b is None and n != 1):
        broken.append("no final b except on a last run of one block")
    if b is not None and abs(b) == 1 and a != 0 and (a > 0) != (b > 0):
        broken.append("closing pair against the sign rule")
    return broken


def n_families(n):
    """(N + 1)/N, (N - 1)/N, (N + 1)/(N - 1) and N/(N + 1), of either sign."""
    family = (Fraction(n + 1, n), Fraction(n - 1, n), Fraction(n + 1, n - 1), Fraction(n, n + 1))
    return [s * x for x in family for s in (1, -1)]


class TestRunRules:
    @given(run_families)
    @settings(max_examples=400, deadline=None)
    def test_expansions_keep_the_rules(self, x):
        assert run_violations(even_cf_expand(x).runs) == []

    def test_expansions_near_one_keep_the_rules(self):
        for x in NEAR_ONE_FAMILY:
            assert run_violations(even_cf_expand(x).runs) == []

    @pytest.mark.parametrize("n", [10, 10**6, 10**16, 10**300])
    def test_expansions_at_scale_keep_the_rules(self, n):
        for x in n_families(n):
            assert run_violations(even_cf_expand(x).runs) == []

    @pytest.mark.parametrize(
        "runs,rule",
        [
            ((), "no blocks"),
            (((1, -1, 2), (1, -1, 1), (1, -2, 1)), "adjacent runs of one block"),
            (((1, -1, 0), (1, -2, 1)), "a count below 1"),
            (((1, 2, 1), (0, 1, 1)), "a zero a entry after the first"),
            (((0, 2, 2), (1, 1, 1)), "a zero a entry after the first"),
            (((1, 0, 1), (2, 1, 1)), "a zero b entry"),
            (((1, None, 1), (2, 1, 1)), "no final b except on a last run of one block"),
            (((1, None, 2),), "no final b except on a last run of one block"),
            (((1, -1, 1),), "closing pair against the sign rule"),
            (((2, 3, 4), (-1, 1, 1)), "closing pair against the sign rule"),
        ],
    )
    def test_each_rule_catches_a_bad_expansion(self, runs, rule):
        assert run_violations(EvenCF(runs).runs) == [rule]

    @given(
        st.lists(
            st.tuples(st.integers(-2, 2), st.one_of(st.none(), st.integers(-2, 2)), st.integers(0, 2)),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=500)
    def test_rules_are_the_entry_checks(self, runs):
        # Runs keep the rules exactly when the entry constructor accepts their
        # written-out entries and gives the same runs back.
        e = EvenCF(tuple(runs))
        try:
            accepted = reference_even_cf(e.a_entries, e.b_entries, e.has_final_b).runs == e.runs
        except ValueError:
            accepted = False
        assert (run_violations(e.runs) == []) == accepted

    def test_pickles_and_copies_at_scale(self):
        # Two runs standing for 10^300 entries: a copy that wrote them out
        # would raise MemoryError.
        e = even_cf_expand(Fraction(10**300 + 1, 10**300))
        twins = [pickle.loads(pickle.dumps(e, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(e), copy.deepcopy(e)]:
            assert type(twin) is EvenCF
            assert (twin == e, twin.runs, hash(twin)) == (True, e.runs, hash(e))


nonzero = st.integers(-3, 3).filter(bool)
blocks = st.one_of(st.sampled_from([(1, -1), (-1, 1)]), st.tuples(nonzero, nonzero))


@st.composite
def valid_expansions(draw):
    """An EvenCF from drawn runs of blocks: parabolic runs (g, -g) anywhere,
    other repeated blocks, an optional leading (0, b), and a closing block
    that may extend the run before it."""
    a_entries, b_entries = [], []
    lead = draw(st.one_of(st.none(), nonzero))
    if lead is not None:
        a_entries.append(0)
        b_entries.append(lead)
    for (a, b), n in draw(st.lists(st.tuples(blocks, st.integers(1, 7)), max_size=5)):
        a_entries += [a] * n
        b_entries += [b] * n
    a_entries.append(draw(nonzero))
    b_last = draw(st.one_of(st.none(), st.integers(-5, 5).filter(bool)))
    if b_last is not None:
        b_entries.append(b_last)
    try:
        return reference_even_cf(a_entries, b_entries, b_last is not None)
    except ValueError:  # a closing pair against the sign rule
        assume(False)


class TestFoldRuns:
    @given(valid_expansions())
    @settings(max_examples=500)
    def test_is_the_fold_of_the_entries(self, e):
        assert _fold_runs(e.runs) == _fold(e.entries())

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("block", [(1, 1), (2, -1), (-1, -2), (1, -1), (-1, 1)])
    def test_repeated_blocks(self, block, n):
        a, b = block
        for a_entries, b_entries in [
            ([a] * n + [3], [b] * n + [2]),  # first
            ([2] + [a] * n + [3], [1] + [b] * n + [2]),  # in the middle
            ([0] + [a] * n + [-3], [-2] + [b] * n + [-1]),  # after a leading (0, b)
        ]:
            e = reference_even_cf(a_entries, b_entries, True)
            assert (a, b, n) in e.runs
            assert _fold_runs(e.runs) == _fold(e.entries())

    def test_last_run_longer_than_one(self):
        e = even_cf_expand(Fraction(-667, 1635))
        assert e.runs[-1] == (1, 1, 2)
        assert _fold_runs(e.runs) == _fold(e.entries())
        twist = -2 * sum_a(e)  # 1635 is odd
        assert change_of_basis(Fraction(-667, 1635)) == word_product(e.entries() + (twist,))

    def test_leading_zero_block(self):
        e = even_cf_expand(Fraction(1, 3))
        assert e.runs == ((0, 3, 1),)
        assert _fold_runs(e.runs) == _fold((0, 3))


# Runs that start at a b slot, N/2 blocks long: (N/(N + 1), -N/(N + 1),
# (3N + 2)/(N + 1) and (N - 1)/N for even N.
def b_slot_runs(n):
    half = n // 2
    return {
        Fraction(n, n + 1): ((0, 1, 1), (-1, 1, half - 1), (-1, None, 1)),
        Fraction(-n, n + 1): ((0, -1, 1), (1, -1, half - 1), (1, None, 1)),
        Fraction(3 * n + 2, n + 1): ((1, 1, 1), (-1, 1, half - 1), (-1, None, 1)),
        Fraction(n - 1, n): ((0, 1, 1), (-1, 1, half - 2), (-1, 2, 1)),
    }


class TestRunsFromABSlot:
    @pytest.mark.parametrize("n", [10**2, 10**4])
    def test_formula_is_the_reference(self, n):
        for x, runs in b_slot_runs(n).items():
            assert even_cf_expand(x) == reference_even_cf_expand(x)
            assert even_cf_expand(x).runs == runs

    @pytest.mark.parametrize("n", [10**16, 10**300])
    def test_at_scale(self, n):
        for x, runs in b_slot_runs(n).items():
            assert _even_runs(x) == reference_items_to_runs(reference_items(x)[0]) == runs
            q, _, p, _ = _fold_runs(runs)
            assert Fraction(q, p) == x
            if x.numerator % 2:
                assert change_of_basis(x) == reference_change_of_basis(x)
                assert st_convert(st_convert(x)) == x


class TestWritersOfAHugeRun:
    # (N + 1)/N with N = 10^30: runs ((1, -1, N/2 - 1), (1, -2, 1)), a run
    # longer than any list can be.
    x = Fraction(10**30 + 1, 10**30)

    @pytest.mark.parametrize(
        "write",
        [lambda e: e.a_entries, lambda e: e.b_entries, lambda e: e.entries(), str],
        ids=["a_entries", "b_entries", "entries", "str"],
    )
    def test_expansion_writers(self, write):
        e = even_cf_expand(self.x)
        assert e.runs == ((1, -1, 5 * 10**29 - 1), (1, -2, 1))
        with pytest.raises(MemoryError, match=f"^a run of {5 * 10**29 - 1} blocks cannot be written out$"):
            write(e)

    def test_conversion_word(self):
        with pytest.raises(MemoryError, match="cannot be written out"):
            conversion_word(self.x)
        assert st_convert(st_convert(self.x)) == self.x


# Lehmer rounds. While the denominator is longer than two windows,
# _even_runs takes the descent's steps on the top _WINDOW bits of the pair,
# for both ends of an interval that holds x; with _WINDOW patched out of
# reach, the Fraction loop alone writes the runs, the reference here.
WINDOW = contfrac._WINDOW


def without_rounds(f, *args):
    """f(*args) with the Lehmer rounds switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contfrac, "_WINDOW", 10**9)
        return f(*args)


def two_bridge_tuple(b, a):
    return two_bridge_slopes(make_form(b, a))


# Sizes up to 4300 digits (14 284 bits), a third of them within 6 bits of
# the 2 * WINDOW bits from which the rounds run, on either side.
round_bits = st.one_of(
    st.integers(2 * WINDOW - 6, 2 * WINDOW + 6),
    st.integers(2 * WINDOW + 7, 700),
    st.sampled_from([2000, 14_284]),
)


@st.composite
def round_values(draw):
    bits = draw(round_bits)
    big = draw(st.integers(2 ** (bits - 1), 2**bits))
    s = draw(signs)
    family = draw(st.sampled_from(["random", "p+-1", "odd+1/N", "N+1/N-1", "c+-1/N", "c+-1/N^2"]))
    if family == "random":
        return Fraction(s * draw(st.integers(0, 2**bits)), big)
    if family == "p+-1":
        return s * Fraction(big + draw(signs), big)
    if family == "odd+1/N":
        return 2 * draw(st.integers(-50, 50)) + 1 + Fraction(s, big)
    if family == "N+1/N-1":
        return s * Fraction(big + 1, big - 1)
    # Next to the ends of the decision regions: odd integers, the run
    # regime's edge 5/4 and the edge 9/8 between 2 and 3 pairs.
    c = draw(st.sampled_from([1, -1, Fraction(5, 4), Fraction(-5, 4), 3, -3, Fraction(9, 8)]))
    n = big if family == "c+-1/N" else draw(st.integers(2 ** (bits // 2 - 1), 2 ** (bits // 2)))
    return c + Fraction(s, n if family == "c+-1/N" else n * n)


class TestLehmerRounds:
    # These draws catch a round without the remainder-sign check, one that
    # starts from the interval of the other sign of U, and one that lets an
    # end with remainder -1 through (as at -2^57/(2^57 + 1), whose first
    # round has the end -1). Dropping either half of the check that both
    # ends are in the run regime changes no draw's runs: that check rests,
    # like the round as a whole, on the derivation in the module docstring.
    # Failures are not shrunk: shrinking a draw of thousands of digits
    # through the reference takes minutes.
    @given(round_values())
    @settings(max_examples=400, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate])
    def test_runs_are_those_of_the_fraction_loop(self, x):
        assert _even_runs(x) == without_rounds(_even_runs, x)

    @pytest.mark.parametrize("digits", [100, 1000, 4300])
    def test_random_slopes_of_many_digits(self, digits):
        rng = random.Random(digits)
        for _ in range(3 if digits < 4300 else 1):
            q = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            x = Fraction(rng.choice((1, -1)) * q, rng.randrange(10 ** (digits - 1), 10**digits))
            assert _even_runs(x) == without_rounds(_even_runs, x)

    def test_the_invariants_at_scale(self):
        # 10^300-sized slopes, random draws and the N-families, and one
        # random 4300-digit slope.
        rng = random.Random(300)
        xs = [Fraction(rng.randrange(10**299, 10**300) | 1, rng.randrange(10**299, 10**300)) for _ in range(3)]
        xs += [x for x in n_families(10**300) if x.numerator % 2]
        xs.append(Fraction(rng.randrange(10**4299, 10**4300) | 1, rng.randrange(10**4299, 10**4300)))
        for x in xs:
            b, a = abs(x.numerator), x.denominator % abs(x.numerator)
            for f, *args in [(st_convert, x), (change_of_basis, x), (make_form, b, a), (two_bridge_tuple, b, a)]:
                assert f(*args) == without_rounds(f, *args)


# The fold of the Lehmer rounds. For a denominator longer than two windows,
# _basis folds each round's entries from the round's own matrix and only the
# Fraction loop's tail entry by entry; the reference folds every run of
# _even_runs(x) with _fold_runs, and without_rounds(_basis, x) is the
# Fraction loop and that fold alone.
def reference_basis(x):
    runs = _even_runs(x)
    t = _twist(x, runs)
    q, s, p, r = _fold_runs(runs)
    return q, q * t + s, p, p * t + r


def rounds_cut(x):
    """Whether x's Lehmer rounds stop with a block open, and whether the
    first run that the Fraction loop writes after them lengthens their last."""
    runs: list = []
    a, y = contfrac._lehmer_rounds(runs, None, x.numerator, x.denominator)
    return a is not None, runs[-1][:-1] == _even_runs(y, a)[0][:-1]


def periodic_value(n, close):
    """The value of the word [4, 6] * n + close: one run of n blocks (2, 3)
    and the closing block."""
    q, p = 1, 0
    for c in reversed([4, 6] * n + close):
        q, p = c * q + p, q
    return Fraction(q, p)


# (open block, merged run) where the rounds stop, for each explicit case. The
# rounds of the first four take an odd number of flips and run pairs in all.
CUT_CASES = {
    Fraction(31266444139197849073, 28326830882602876319): (False, False),
    Fraction(123949730032300167568250448275165316449, 146642368849806280688702019556195755708): (True, False),
    Fraction(13964372025090246253537, 35239727359425935406951): (True, True),
    Fraction(5733841134213043136018173215450553265, 43875002412127833779796074918885561086): (False, True),
    periodic_value(30, [2, 1]): (False, True),
    periodic_value(32, [2, 1]): (True, True),
    periodic_value(2828, [2, 1]): (True, True),
}


class TestFoldOfTheRounds:
    @given(round_values())
    @settings(max_examples=150, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate])
    def test_basis_is_the_fold_of_the_runs(self, x):
        runs = _even_runs(x)
        assert contfrac._runs_and_fold(x) == (runs, _fold_runs(runs))
        assert _basis(x) == reference_basis(x)

    @given(round_values())
    @settings(max_examples=40, derandomize=True, deadline=None, phases=[Phase.explicit, Phase.generate])
    def test_basis_is_that_of_the_fraction_loop(self, x):
        assert _basis(x) == without_rounds(_basis, x)

    @pytest.mark.parametrize("x", list(CUT_CASES), ids=lambda x: f"{x.denominator.bit_length()}bits")
    def test_where_the_rounds_stop(self, x):
        assert rounds_cut(x) == CUT_CASES[x]
        runs = without_rounds(_even_runs, x)
        assert contfrac._runs_and_fold(x) == (runs, _fold_runs(runs))
        assert _basis(x) == reference_basis(x) == without_rounds(_basis, x)

    def test_the_families_at_scale(self):
        for x in n_families(10**300) + [5 + Fraction(1, 10**300), Fraction(5, 4) - Fraction(1, 10**300)]:
            assert _basis(x) == reference_basis(x) == without_rounds(_basis, x)

    def test_a_round_without_its_sign_fails(self, monkeypatch):
        # Each flip and each odd run of pairs negates the fold of a round's
        # entries against the inverse of its matrix; a round that drops the
        # sign leaves the runs as they are, but not the fold.
        round_ = contfrac._round
        monkeypatch.setattr(contfrac, "_round", lambda *args: round_(*args)[:-1] + (1,))
        assert [_basis(x) != reference_basis(x) for x in CUT_CASES][:4] == [True] * 4
