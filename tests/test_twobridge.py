import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import groupby, zip_longest
from math import gcd
from operator import countOf
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from tunnelslopes import (
    CablingContradictionError,
    CablingStep,
    EvenCF,
    LinkInvariantError,
    Target,
    TrivialKnotError,
    TunnelKind,
    TunnelParams,
    TwoBridgeForm,
    cabling_steps,
    cf_eval,
    even_cf_expand,
    make_form,
    mirror,
    normalize_input,
    residue_of,
    serialize,
    sum_a,
    two_bridge_slopes,
    validate,
)
import tunnelslopes.oracle
import tunnelslopes.rationals
import tunnelslopes.twobridge
from tunnelslopes.oracle import _eval_raw, _unit_word, unit_rewrite, unit_rewrite_check
from tunnelslopes.twobridge import _walk

from test_contfrac import reference_even_cf, reference_entry_writer, run_families
from test_oracle import n_family
from test_rationals import traced_peak
from test_tunnels import assert_matches_the_references, reference_serialize


KNOWN_SEQUENCES = [
    ((33, 19), Fraction(1, 3), (Fraction(3), Fraction(5, 3))),
    (
        (64793, 31710),
        Fraction(2, 3),
        (
            Fraction(-3, 2),
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(7, 3),
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(49, 24),
        ),
    ),
    (
        (3860981, 2689048),
        Fraction(13, 27),
        (
            Fraction(3),
            Fraction(3),
            Fraction(3),
            Fraction(5, 3),
            Fraction(3),
            Fraction(7, 3),
            Fraction(15, 8),
            Fraction(-5, 3),
            Fraction(-1),
            Fraction(-3),
        ),
    ),
    (
        (5272967, 2616517),
        Fraction(5, 9),
        (Fraction(11, 5), Fraction(21, 10), Fraction(-23, 11), Fraction(-131, 66)),
    ),
]


@pytest.mark.parametrize("pair,m0,slopes", KNOWN_SEQUENCES)
def test_known_cabling_sequences(pair, m0, slopes):
    t = two_bridge_slopes(make_form(*pair))
    assert t.m0 == residue_of(m0)
    assert t.slopes == slopes
    assert t.binaries == (0,) * max(len(slopes) - 1, 0)


class TestNormalizeInput:
    def test_both_residues(self):
        forms = normalize_input(3, 5)
        assert [(f.b, f.a) for f in forms] == [(3, 2), (3, -1)]

    def test_already_normalized_input_still_has_two_forms(self):
        forms = normalize_input(33, 19)
        assert [(f.b, f.a) for f in forms] == [(33, 19), (33, -14)]

    def test_negative_b_canonicalized(self):
        forms = normalize_input(-3, -5)
        assert [(f.b, f.a) for f in forms] == [(3, 2), (3, -1)]

    def test_even_b_rejected(self):
        with pytest.raises(LinkInvariantError):
            normalize_input(4, 3)

    def test_trivial_knot_rejected(self):
        with pytest.raises(TrivialKnotError):
            normalize_input(1, 2)

    def test_negative_trivial_knot_rejected(self):
        with pytest.raises(TrivialKnotError):
            normalize_input(-1, 2)

    def test_zero_b_rejected(self):
        with pytest.raises(LinkInvariantError):
            normalize_input(0, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            normalize_input(5, 10)


class TestMakeForm:
    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalize"):
            make_form(3, 5)

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            make_form(5, 0)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="^9 and 3 are not coprime$"):
            make_form(9, 3)

    def test_negative_pair_canonicalized(self):
        assert (make_form(-33, -19).b, make_form(-33, -19).a) == (33, 19)


class TestUnitRewrite:
    def test_expands_multi_twist_entries(self):
        e = even_cf_expand(Fraction(33, 19))
        assert unit_rewrite(e) == ((1, 1, 1), (-2, 0, 1))

    def test_already_unit(self):
        assert unit_rewrite(even_cf_expand(Fraction(3))) == ((1,), (1,))

    def test_negative_units(self):
        e = reference_even_cf((-1, -1), (-2, -1), True)
        assert unit_rewrite(e) == ((-1, -1), (-2, -1))
        assert cf_eval(_unit_word(*unit_rewrite(e))) == cf_eval(e.entries())

    def test_value_preserved(self):
        e = even_cf_expand(Fraction(64793, 31710))
        ua, ub = unit_rewrite(e)
        assert cf_eval(_unit_word(ua, ub)) == Fraction(64793, 31710)
        assert len(ua) == sum(abs(a) for a in e.a_entries)

    def test_even_numerator_form_rejected(self):
        with pytest.raises(ValueError):
            unit_rewrite(even_cf_expand(Fraction(2)))

    def test_zero_a_entry_rejected(self):
        with pytest.raises(ValueError, match="every a entry nonzero"):
            unit_rewrite(EvenCF(((0, -1, 1),)))

    def test_too_many_units_to_write_out(self):
        # (N + 1)/(N - 1) with N = 10^30 has a run of N/4 - 1 units, longer
        # than any list can be.
        form = make_form(10**30 + 1, 10**30 - 1)
        with pytest.raises(MemoryError, match=f"^a run of {10**30 // 4 - 1} units cannot be written out$"):
            unit_rewrite(form.expansion)


class TestCablingStep:
    def test_step_invariant_enforced(self):
        assert CablingStep(index=1, k=3, parity="even").slope == Fraction(7, 3)
        with pytest.raises(TypeError):
            CablingStep(index=1, k=3, parity="even", slope=Fraction(5, 2))

    # make_form never builds these expansions (they break the run rules), but
    # a TwoBridgeForm and its CablingStep records are plain records, so the
    # walk is where a zero twist count is rejected.
    def test_zero_first_twist_rejected(self):
        # a = (2, -1), b = (-2, 1)
        expansion = SimpleNamespace(runs=((2, -2, 1), (-1, 1, 1)))
        form = TwoBridgeForm(33, 19, expansion)
        for compute in (cabling_steps, two_bridge_slopes):
            with pytest.raises(CablingContradictionError, match="^first cabling has twist count 0$"):
                compute(form)

    def test_zero_later_twist_rejected(self):
        # a = (1, -1, 1), b = (-2, 0, 1)
        expansion = SimpleNamespace(runs=((1, -2, 1), (-1, 0, 1), (1, 1, 1)))
        form = TwoBridgeForm(33, 19, expansion)
        for compute in (cabling_steps, two_bridge_slopes):
            with pytest.raises(CablingContradictionError, match="^cabling 2 has twist count 0$"):
                compute(form)

    def test_steps_emitted_in_descending_unit_order(self):
        m0, steps = cabling_steps(make_form(33, 19))
        assert m0 == residue_of(Fraction(1, 3))
        assert [s.index for s in steps] == [2, 1]
        assert [(s.k, s.parity) for s in steps] == [(1, "even"), (-3, "even")]

    def test_reciprocal_of_first_cabling(self):
        for b, a in [(33, 19), (3, 2), (3, -1), (5272967, 2616517)]:
            form = make_form(b, a)
            m0, _ = cabling_steps(form)
            unit_a, unit_b = unit_rewrite(form.expansion)
            last_unit = unit_a[-1]
            b_last = unit_b[-1]
            if last_unit == 1:
                standard = 2 + Fraction(1, b_last)
            else:
                standard = -2 + Fraction(1, b_last)
            assert m0 == residue_of(1 / standard)


def reference_cabling_steps(form):
    """The four-case walk that the twist-count formula replaced."""
    unit_a, unit_b = unit_rewrite(form.expansion)
    b_last = unit_b[-1]
    if unit_a[-1] == 1:
        m0 = residue_of(Fraction(b_last, 2 * b_last + 1))
    else:
        m0 = residue_of(Fraction(b_last - 1, 2 * b_last - 1))
    steps = []
    for i in range(len(unit_a) - 1, 0, -1):
        successor, current, b_i = unit_a[i], unit_a[i - 1], unit_b[i - 1]
        if successor == 1:
            parity = "even" if (b_last + 1) % 2 == 0 else "odd"
            k = 2 * b_i + 1 if current == 1 else 2 * b_i
        else:
            parity = "even" if b_last % 2 == 0 else "odd"
            k = 2 * b_i if current == 1 else 2 * b_i - 1
        steps.append((i, k, parity))
    return m0, steps


def forms_with_wide_blocks(count, seed):
    """Forms built from even expansions with a lower entry |bi| >= 50 between
    two blocks of units, the range the golden outputs never reach."""
    rng = random.Random(seed)

    def signed(lo, hi):
        return rng.choice((-1, 1)) * rng.randint(lo, hi)

    forms = []
    for _ in range(count):
        k = rng.randint(2, 5)
        a = [signed(1, 3) for _ in range(k)]
        b = [signed(1, 60) for _ in range(k - 1)]
        b[rng.randrange(k - 1)] = signed(50, 10**4)
        b_last = signed(1, 9)
        if abs(b_last) == 1:
            b_last = 1 if a[-1] > 0 else -1
        expansion = reference_even_cf(a, b + [b_last], True)
        x = cf_eval(expansion.entries())
        form = make_form(x.numerator, x.denominator)
        assert form.expansion == expansion
        forms.append(form)
    return forms


def reference_slope(k, parity):
    """The cabling slope as 2 + 1/k or -2 + 1/k, before the closed form."""
    return (2 if parity == "even" else -2) + Fraction(1, k)


def assert_matches_four_case_walk(form):
    """cabling_steps and two_bridge_slopes, which share one walk, against the
    four-case reference and the slope written as 2 + 1/k or -2 + 1/k."""
    m0, steps = cabling_steps(form)
    ref_m0, ref_steps = reference_cabling_steps(form)
    assert (m0, [(s.index, s.k, s.parity) for s in steps]) == (ref_m0, ref_steps)
    t = two_bridge_slopes(form)
    assert t.m0 == m0
    assert t.slopes == tuple(step.slope for step in steps)
    assert t.slopes == tuple(reference_slope(k, parity) for _, k, parity in ref_steps)
    assert t.binaries == (0,) * max(len(t.slopes) - 1, 0)


# The slowest slopes-2bridge inputs before the walk followed runs: one form
# of each has hundreds to thousands of entries in a few runs of (2s, -2s).
RUN_HEAVY_INVARIANTS = [
    (19815, 19811),
    (98699, -60738),
    (36405, -13),
    (53801, 17937),
    (79383, 31751),
    (83303, 78403),
]

# (2k + 1)/(2k - 1), that is (N + 2)/N for odd N: about N entries, nearly
# all of them pairs (2, -2).
NEAR_ONE_INVARIANTS = [(2 * k + 1, 2 * k - 1) for k in range(2, 200)] + [
    (n + 2, n) for n in (999, 10**4 + 1, 10**5 - 1, 199_999)
]


def run_heavy_forms():
    return [f for pair in RUN_HEAVY_INVARIANTS + NEAR_ONE_INVARIANTS for f in normalize_input(*pair)]


def test_cabling_formula_matches_four_case_walk():
    small = [make_form(b, a) for b in range(3, 40, 2) for a in range(1 - b, b) if gcd(b, a) == 1]
    wide = forms_with_wide_blocks(200, seed=5)
    assert sum(any(abs(b) >= 50 for b in f.expansion.b_entries[:-1]) for f in wide) >= 50
    for form in small + wide + run_heavy_forms():
        assert_matches_four_case_walk(form)


def signed(magnitude):
    return st.tuples(st.sampled_from((-1, 1)), magnitude).map(lambda p: p[0] * p[1])


@st.composite
def forms_with_long_blocks(draw):
    """Forms whose expansion has a entries up to 400 units long, so runs of
    equal consecutive slopes are long."""
    a = draw(st.lists(signed(st.integers(1, 400)), min_size=1, max_size=4))
    b = draw(st.lists(signed(st.integers(1, 60)), min_size=len(a) - 1, max_size=len(a) - 1))
    b_last = draw(signed(st.integers(1, 9)))
    if abs(b_last) == 1:
        b_last = 1 if a[-1] > 0 else -1
    expansion = reference_even_cf(a, b + [b_last], True)
    x = cf_eval(expansion.entries())
    form = make_form(x.numerator, x.denominator)
    assert form.expansion == expansion
    return form


@given(forms_with_long_blocks())
@settings(max_examples=200, deadline=None)
def test_cabling_formula_matches_four_case_walk_on_long_blocks(form):
    assert_matches_four_case_walk(form)


def reference_walk(form):
    """The block-by-block walk that grouping equal boundary stretches
    replaced: an inner item and a boundary item per block."""
    a_entries, b_entries = form.expansion.a_entries, form.expansion.b_entries
    b_last = b_entries[-1]
    top = sum(map(abs, a_entries)) - 1
    for j in range(len(a_entries) - 1, -1, -1):
        e = 1 if a_entries[j] > 0 else -1
        even = (b_last + (e + 1) // 2) % 2 == 0
        inner = abs(a_entries[j]) - 1
        if inner > 0:
            yield inner, top, e, even
            top -= inner
        if j:
            k = 2 * b_entries[j - 1] + (e + (1 if a_entries[j - 1] > 0 else -1)) // 2
            if k == 0:
                raise CablingContradictionError(f"cabling {top} has twist count 0")
            yield 1, top, k, even
            top -= 1


def per_index(walk):
    """The (index, k, parity) of every cabling of a walk, item by item."""
    return [
        (i, k, "even" if even else "odd")
        for count, top, k, even in walk
        for i in range(top, top - count, -1)
    ]


def indexed_walk(form):
    """_walk's items in the form the references give: (count, top, k, even),
    with top the item's highest twist index, counted down from n."""
    _, items, top = _walk(form)
    walk = []
    for k, even, count in items:
        walk.append((count, top, k, even))
        top -= count
    return walk


def reference_slopes(form):
    """The slopes of the reference walk, one object per item as before."""
    slopes, last = [], None
    for count, _, k, even in reference_walk(form):
        if (k, even) != last:
            last, slope = (k, even), reference_slope(k, "even" if even else "odd")
        slopes += [slope] * count
    return tuple(slopes)


def shared_neighbours(slopes):
    return [m is prev for prev, m in zip(slopes, slopes[1:])]


def assert_matches_reference_walk(form):
    """The walk per index, cabling_steps, the slope values and which
    neighbours share one object, and the serialized bytes, against the
    reference walk."""
    expected = per_index(reference_walk(form))
    assert per_index(indexed_walk(form)) == expected
    m0, steps = cabling_steps(form)
    assert [(s.index, s.k, s.parity) for s in steps] == expected
    t = two_bridge_slopes(form)
    slopes = reference_slopes(form)
    assert shared_neighbours(t.slopes) == shared_neighbours(slopes)
    # Slopes in lowest terms render apart, so equal bytes mean equal values.
    reference = TunnelParams(m0, slopes, (0,) * max(len(slopes) - 1, 0))
    assert serialize(t) == serialize(reference)


@pytest.mark.parametrize("b,a", RUN_HEAVY_INVARIANTS)
def test_walk_matches_reference_on_run_heavy_forms(b, a):
    for form in normalize_input(b, a):
        assert_matches_reference_walk(form)


def test_walk_matches_reference_near_one():
    for pair in NEAR_ONE_INVARIANTS:
        for form in normalize_input(*pair):
            assert_matches_reference_walk(form)


@st.composite
def invariants_below_a_million(draw):
    b = draw(st.integers(1, 499_999)) * 2 + 1
    a = draw(st.integers(1, b - 1))
    assume(gcd(b, a) == 1)
    return b, a


@given(invariants_below_a_million())
@settings(max_examples=100, deadline=None)
def test_walk_matches_reference_below_a_million(pair):
    for form in normalize_input(*pair):
        assert_matches_reference_walk(form)


def test_walk_follows_the_runs_not_the_entries():
    form = make_form(19815, 19811)
    entries = len(form.expansion.a_entries) + len(form.expansion.b_entries)
    assert entries == 4954
    assert len(indexed_walk(form)) <= 8


def test_walk_counts_a_stretch_without_listing_it():
    # 2000001/1999999 expands to a million entries, nearly all pairs (2, -2).
    form = make_form(2000001, 1999999)
    assert len(form.expansion.a_entries) + len(form.expansion.b_entries) == 10**6
    _, peak = traced_peak(_walk, form)
    assert peak < 64 * 1024


def test_equal_consecutive_slopes_share_one_object():
    slopes = two_bridge_slopes(make_form(200001, 199999)).slopes
    runs = 1 + sum(m != prev for prev, m in zip(slopes, slopes[1:]))
    assert len(slopes) > 1000 * runs
    assert all(m is prev for prev, m in zip(slopes, slopes[1:]) if m == prev)


def random_invariants(count, seed, bound=99999):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        b = rng.randint(3, bound) | 1
        a = rng.randint(1, b - 1)
        if gcd(b, a) != 1:
            continue
        yield b, a if rng.random() < 0.5 else a - b
        produced += 1


@pytest.mark.parametrize("b,a", list(random_invariants(60, seed=11)))
def test_structural_properties(b, a):
    form = make_form(b, a)
    t = two_bridge_slopes(form)
    unit_a, unit_b = unit_rewrite(form.expansion)
    assert len(t.slopes) + 1 == len(unit_a) == sum(abs(x) for x in form.expansion.a_entries)
    assert all(m.numerator % 2 == 1 for m in t.slopes)
    assert t.m0.denominator % 2 == 1
    cls = validate(t)
    assert cls.target is Target.KNOT
    if t.slopes:
        assert cls.kind is TunnelKind.SEMISIMPLE
    else:
        assert cls.kind is TunnelKind.SIMPLE_KNOT
    assert cf_eval(_unit_word(unit_a, unit_b)) == Fraction(b, a)
    _, steps = cabling_steps(form)
    for step in steps:
        center = 2 if step.parity == "even" else -2
        assert abs(step.slope - center) == Fraction(1, abs(step.k)) <= 1


def test_unit_rewrite_check_catches_broken_forms(monkeypatch):
    form = make_form(33, 19)
    unit_a, unit_b = unit_rewrite(form.expansion)
    assert unit_rewrite_check([form]).ok
    broken_rewrites = {
        "33/19: unit word evaluates to 59/34": (unit_a, unit_b[:-1] + (unit_b[-1] + 1,)),
        "33/19: 2 units for 3 twists": (unit_a[1:], unit_b[1:]),
    }
    for violation, units in broken_rewrites.items():
        monkeypatch.setattr(tunnelslopes.oracle, "unit_rewrite", lambda e, units=units: units)
        assert unit_rewrite_check([form]).violations == (violation,)
    monkeypatch.undo()

    walk = tunnelslopes.twobridge._walk

    def walk_with_a_wrong_boundary(form):
        m0, items, n = walk(form)
        return m0, [(k + (count == 1), even, count) for k, even, count in items], n

    monkeypatch.setattr(tunnelslopes.twobridge, "_walk", walk_with_a_wrong_boundary)
    assert unit_rewrite_check([form]).violations == (
        "33/19: cabling twist counts differ from the unit walk",
    )


def test_unit_rewrite_check_counts_twists_from_runs(monkeypatch):
    def written_out(e):
        raise AssertionError("a_entries written out")

    monkeypatch.setattr(EvenCF, "a_entries", property(written_out))
    assert unit_rewrite_check([make_form(33, 19)]).ok


def test_total_cabling_count_equals_expansion_twists():
    assert sum_a(even_cf_expand(Fraction(33, 19))) == 3  # signed sum, for contrast
    form = make_form(33, 19)
    assert len(unit_rewrite(form.expansion)[0]) == 3
    assert len(two_bridge_slopes(form).slopes) == 2


def test_form_memory_does_not_grow_with_the_twists():
    # 2000001/2 expands as [1000000, 2]: 500 000 twists in one block, which a
    # form keeps as its two-entry expansion rather than as units.
    form, peak = traced_peak(make_form, 2000001, 2)
    assert form.expansion.entries() == (1000000, 2)
    assert peak < 1_000_000


def reference_grouped_walk(form):
    """The walk as it grouped the expansion's entries before EvenCF stored
    runs: one key per block, read off the written-out entries, and equal
    consecutive keys grouped. The reference for the walk over the runs."""
    a_entries, b_entries = form.expansion.a_entries, form.expansion.b_entries
    b_last = b_entries[-1]
    top = sum(map(abs, a_entries)) - 1
    lower_a, lower_b = reversed(a_entries), reversed(b_entries)
    next(lower_a), next(lower_b)
    for key, stretch in groupby(zip_longest(reversed(a_entries), lower_a, lower_b)):
        a, a_lower, b = key
        e = 1 if a > 0 else -1
        even = (b_last + (e + 1) // 2) % 2 == 0
        inner = abs(a) - 1
        if a_lower is None:
            if inner > 0:
                yield inner, top, e, even
            return
        k = 2 * b + (e + (1 if a_lower > 0 else -1)) // 2
        if k == 0:
            raise CablingContradictionError(f"cabling {top - max(inner, 0)} has twist count 0")
        if inner > 0:
            for _ in stretch:
                yield inner, top, e, even
                top -= inner
                yield 1, top, k, even
                top -= 1
        else:
            count = countOf(stretch, key)
            yield count, top, k, even
            top -= count


def assert_matches_entry_walk(form):
    """The expansion, the walk and the serialized slopes of a form against
    the entry-by-entry writer, the grouped walk and str() per bit."""
    x = Fraction(form.b, form.a)
    assert form.expansion == reference_even_cf(*reference_entry_writer(x))
    assert per_index(indexed_walk(form)) == per_index(reference_grouped_walk(form))
    t = two_bridge_slopes(form)
    assert serialize(t) == reference_serialize(t)
    assert t.slopes == reference_slopes(form)


def slopes_2bridge_pools():
    """Both slopes-2bridge benchmark pools, seeds 1 and 2, as (b, a) draws."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [item for seed in (1, 2) for item in workloads.build_two_bridge(seed, False)]


def test_runs_match_the_entries_on_the_benchmark_pools():
    pools = slopes_2bridge_pools()
    assert len(pools) == 2030
    for item in pools:
        for form in normalize_input(*item):
            assert_matches_entry_walk(form)


def test_runs_match_the_entries_near_one():
    for pair in NEAR_ONE_INVARIANTS:
        for form in normalize_input(*pair):
            assert_matches_entry_walk(form)


@given(run_families)
@settings(max_examples=300, deadline=None)
def test_runs_match_the_entries_on_run_families(x):
    assume(x.numerator % 2 and abs(x.numerator) > 1)
    forms = normalize_input(x.numerator, x.denominator)
    # The references write out every twist; odd integers up to 2 * 10^6
    # would give a million.
    assume(all(sum(abs(a) * n for a, _, n in f.expansion.runs) <= 10**4 for f in forms))
    for form in forms:
        assert_matches_entry_walk(form)


def merged_walk(walk):
    """A walk's items with consecutive items of one (k, parity) merged into
    one: the counts summed, the first item's top index kept."""
    merged = []
    for count, top, k, even in walk:
        if merged and merged[-1][2:] == (k, even):
            merged[-1] = (merged[-1][0] + count, merged[-1][1], k, even)
        else:
            merged.append((count, top, k, even))
    return merged


def test_walk_yields_maximal_runs():
    # 36000037/11999989 has a run (2, -1) x 2 above a stretch of 85 713 blocks
    # (1, -1); its positive residue's last 85 714 cablings, all k = -1, once
    # came as three items.
    pairs = RUN_HEAVY_INVARIANTS + NEAR_ONE_INVARIANTS + slopes_2bridge_pools() + [(36000037, 11999989)]
    for pair in pairs:
        for form in normalize_input(*pair):
            walk = indexed_walk(form)
            assert walk == merged_walk(reference_grouped_walk(form))
            assert len(two_bridge_slopes(form).slope_runs) == len(walk)


def assert_residues_agree(b, a, cap=10**6):
    """Both admissible residues of b/a give the same first residue and the
    same walk, read per run, and the same tuple text when it has at most
    cap slopes."""
    first, second = normalize_input(b, a)
    m0, items, n = _walk(first)
    assert _walk(second) == (m0, items, n)
    if n <= cap:
        assert serialize(two_bridge_slopes(first)) == serialize(two_bridge_slopes(second))


def test_residue_pair_identity_on_the_benchmark_pools():
    for item in slopes_2bridge_pools():
        assert_residues_agree(*item)


@pytest.mark.parametrize("n", [10**6, 10**16, 10**300], ids=["1e6", "1e16", "1e300"])
def test_residue_pair_identity_on_n_families(n):
    for b, a in [(n + 1, n), (n - 1, n), (n + 1, n - 1), (n + 3, n + 1), (2 * n + 1, n + 1), (n + 1, 2)]:
        assert_residues_agree(b, a)


def test_residue_pair_identity_on_random_40_digit_invariants():
    for item in random_invariants(200, seed=40, bound=10**40):
        assert_residues_agree(*item)


def knots_below_80():
    return [(b, a) for b in range(3, 80, 2) for a in range(1, b) if gcd(b, a) == 1]


def test_mirror_identity():
    # An orientation-reversing map takes the knot of b/a to that of b/(-a),
    # and its tunnel's tuple to the mirror tuple; tuples compare by runs.
    forms = [make_form(b, a) for b, a in knots_below_80()]
    forms += [form for n in (10**16, 10**300) for pair in n_family(n) for form in normalize_input(*pair)]
    assert len(forms) == 1302 + 24
    for form in forms:
        assert two_bridge_slopes(make_form(form.b, -form.a)) == mirror(two_bridge_slopes(form))


def test_prefix_closure():
    # The paper's intermediate tunnels: the first L entries of a tuple, m0 and
    # L - 1 slopes, are the tuple of the knot whose invariant is the value of
    # the unit word from unit N - L on.
    prefixes = 0
    for pair in knots_below_80():
        for form in normalize_input(*pair):
            t = two_bridge_slopes(form)
            word = _unit_word(*unit_rewrite(form.expansion))
            units = len(word) // 2
            for length in range(1, units + 1):
                b, a = _eval_raw(word[2 * (units - length) :])
                prefix = TunnelParams(t.m0, t.slopes[: length - 1], t.binaries[: max(length - 2, 0)])
                assert two_bridge_slopes(make_form(b, a)) == prefix
                prefixes += 1
    assert prefixes == 14284


def test_form_of_a_huge_run_stays_small():
    # (N + 1)/(N - 1) with N = 10^16: 5 * 10^15 entries in two runs.
    b, a = 10**16 + 1, 10**16 - 1
    make_form(7, 5)
    form, peak = traced_peak(make_form, b, a)
    assert peak < 4096
    assert len(form.expansion.runs) == 2
    assert sum_a(form.expansion) == 25 * 10**14
    walk = indexed_walk(form)
    assert len(walk) <= 8
    assert sum(count for count, _, _, _ in walk) == 25 * 10**14 - 1


def test_two_bridge_tuple_memory_follows_the_runs():
    # 2000001/1999999 has 499 999 slopes in a few runs.
    form = make_form(2000001, 1999999)
    two_bridge_slopes(make_form(33, 19))
    t, peak = traced_peak(two_bridge_slopes, form)
    assert peak < 64 * 1024
    assert len(t.slope_runs) < 10 and sum(n for _, n in t.slope_runs) == 499_999
    text, peak = traced_peak(serialize, t)
    assert len(text) == 2_000_005
    assert peak < 1.5 * len(text)


def test_huge_tuple_is_checked_per_run():
    # (N + 1)/(N - 1) with N = 10^16: about 2.5 * 10^15 slopes in a few runs.
    form = make_form(10**16 + 1, 10**16 - 1)
    t, peak = traced_peak(two_bridge_slopes, form)
    assert peak < 4096
    assert sum(n for _, n in t.slope_runs) == 25 * 10**14 - 1
    (cls, mirrored, equal), peak = traced_peak(lambda: (validate(t), mirror(t), mirror(mirror(t)) == t))
    assert peak < 4096
    assert (cls.kind, cls.target, equal) == (TunnelKind.SEMISIMPLE, Target.KNOT, True)
    assert mirrored != t and two_bridge_slopes(normalize_input(10**16 + 1, 10**16 - 1)[1]) == t
    # Each write-out is refused before it builds anything of the tuple's size.
    for read in (lambda: t.slopes, lambda: t.binaries, lambda: serialize(t)):
        _, peak = traced_peak(lambda: pytest.raises(MemoryError, read))
        assert peak < 4096


def test_pool_tuples_match_the_per_element_references():
    for item in slopes_2bridge_pools():
        form = normalize_input(*item)[0]
        assert_matches_the_references(two_bridge_slopes(form))


CAPPED_CABLING_STEPS = """
import resource, sys, time
limit = 400 * 2**20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
from tunnelslopes import cabling_steps, make_form
n = int(sys.argv[1])
form = make_form(n + 1, n - 1)
start = time.perf_counter()
try:
    cabling_steps(form)
except MemoryError:
    print(time.perf_counter() - start)
"""


def capped_cabling_steps_seconds(n):
    """The seconds cabling_steps of (n + 1)/(n - 1) takes to raise
    MemoryError in a child whose address space is capped near 400 MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(tunnelslopes.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CABLING_STEPS, str(n)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def test_cabling_steps_beyond_memory_fail_at_once():
    # (N + 1)/(N - 1) with N = 10^16 has about 2.5 * 10^15 cablings. In a child
    # whose address space is capped near 400 MB, sizing the result from the
    # walk's counts fails before any CablingStep is built.
    assert capped_cabling_steps_seconds(10**16) < 1.0


def test_cabling_steps_past_the_address_space_limit_fail_at_once():
    # N = 8 * 10^7: about 2 * 10^7 cablings, some 2 GB of records, fit in the
    # machine's memory but not in the capped address space, which the
    # memory budget reads; without it the child filled 400 MB for 5.5 s.
    assert capped_cabling_steps_seconds(8 * 10**7) < 1.0


def test_cabling_steps_sizes_its_records(monkeypatch):
    # 200001/199999 has 49 999 cablings after the first: their list slots
    # (0.4 MB) fit in 1 MB, their records (about 5 MB) do not. Sizing only
    # the slots would build every record before running out.
    form = make_form(200001, 199999)
    monkeypatch.setattr(tunnelslopes.rationals, "_budget", 10**6)
    tunnelslopes.rationals._written([((None,), 49_999)], "cablings")
    with pytest.raises(MemoryError, match="^a run of 49999 cablings cannot be written out$"):
        cabling_steps(form)
    _, peak = traced_peak(lambda: pytest.raises(MemoryError, cabling_steps, form))
    assert peak < 4096


def test_cabling_steps_memory_per_step():
    # 200001/199999 has 49 999 cablings after the first. Each costs its tuple
    # slot and the tuple's growth, its index int and a slotted CablingStep:
    # about 97 bytes (144 as a frozen dataclass with an instance dict).
    form = make_form(200001, 199999)
    cabling_steps(make_form(33, 19))
    (_, steps), peak = traced_peak(cabling_steps, form)
    assert len(steps) == 49_999
    assert peak <= 110 * len(steps)
