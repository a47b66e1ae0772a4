from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tunnelslopes import (
    INFINITY,
    EvenCF,
    IndeterminateFormError,
    cf_eval,
    change_of_basis,
    conversion_word,
    even_cf_expand,
    projective_add_invert,
    st_convert,
    st_convert_via_matrix,
    sum_a,
    word_product,
)
from tunnelslopes.contfrac import _even_runs, _fold, _Run


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


class TestEvenCfValidation:
    def test_interior_a_zero_rejected(self):
        with pytest.raises(ValueError):
            EvenCF((1, 0), (2, 1), True)

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError):
            EvenCF((1, 2), (0, 1), True)

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
            EvenCF(a_entries, b_entries, has_final_b)

    def test_sign_rule_enforced(self):
        with pytest.raises(ValueError):
            EvenCF((1,), (-1,), True)

    def test_zero_leading_a_with_unit_b_allowed(self):
        assert cf_eval(EvenCF((0,), (-1,), True).entries()) == Fraction(-1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EvenCF((1, 2), (1,), True)


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
    return EvenCF(tuple(a), tuple(b), len(b) == len(a))


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


def reference_conversion_word(x, expansion):
    lead = 2 * sum(expansion.a_entries) * (-1 if x.denominator % 2 else 1)
    return (lead,) + tuple(-c for c in reversed(expansion.entries()[1:]))


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
        if entry_count(x) > REFERENCE_CAP:
            assert cf_eval(_even_runs(x)[0]) == x
            return
        reference = reference_even_cf_expand(x)
        assert even_cf_expand(x) == reference
        assert _even_runs(x)[1] == sum(reference.a_entries) == sum_a(reference)

    @given(run_families)
    @settings(max_examples=400, deadline=None)
    def test_conversion_and_change_of_basis(self, x):
        assume(x.numerator % 2)
        if entry_count(x) > REFERENCE_CAP:
            # Facts that write nothing out: the conversion is an involution
            # on q/p with q * q' = -1 (mod p), and the matrix route agrees.
            converted = st_convert(x)
            assert st_convert(converted) == x
            assert converted.denominator == x.denominator
            assert (x.numerator * converted.numerator + 1) % x.denominator == 0
            assert st_convert_via_matrix(x) == converted
            return
        reference = reference_even_cf_expand(x)
        word = reference_conversion_word(x, reference)
        assert conversion_word(x) == word
        assert st_convert(x) == cf_eval(word)
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
    @pytest.mark.parametrize("count", range(7))
    def test_run_fold_is_the_pair_fold(self, sign, count):
        assert _fold([_Run(sign, count)]) == _fold([2 * sign, -2 * sign] * count)
        assert _fold([3, _Run(sign, count), -5]) == _fold([3] + [2 * sign, -2 * sign] * count + [-5])

    def test_runs_at_both_slots(self):
        # (p + 1)/p opens on a run at an a slot, (p - 1)/p puts it at a b slot.
        items, total = _even_runs(Fraction(10**6 + 1, 10**6))
        assert items == [_Run(1, 499_999), 2, -2] and total == 500_000
        items, total = _even_runs(Fraction(10**6 - 1, 10**6))
        assert items == [0, _Run(1, 499_998), 2, -2, 2] and total == -499_999


def reference_entry_writer(x):
    """The a entries, b entries and has_final_b of x, written entry by entry
    from the run-form descent as even_cf_expand wrote them before EvenCF
    stored runs: the reference for the run-form writer."""
    items = _even_runs(Fraction(x))[0]
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
    from_entries = EvenCF(a, b, has_final_b)
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
        assume(sum(2 * c.count if type(c) is _Run else 1 for c in _even_runs(x)[0]) <= 10**5)
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
        e = EvenCF((1, 1, 1, 2), (-1, -1, -2, 1), True)
        assert e.runs == ((1, -1, 2), (1, -2, 1), (2, 1, 1))
        assert e == even_cf_expand(cf_eval(e.entries()))

    def test_equality_and_hash_are_by_value(self):
        assert EvenCF([1, 2], [-2, 1], True) == EvenCF((1, 2), (-2, 1), True)
        assert len({EvenCF((1, 2), (-2, 1), True), even_cf_expand(Fraction(33, 19))}) == 1
        assert EvenCF((1,), (), False) != EvenCF((1,), (1,), True)
