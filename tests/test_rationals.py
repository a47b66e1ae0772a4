import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tunnelslopes import (
    INFINITY,
    CablingContradictionError,
    IndeterminateFormError,
    LinkInvariantError,
    NotFiniteError,
    ParityError,
    ResidueSlope,
    SL2Matrix,
    TunnelParams,
    TwoBridgeForm,
    ValidationError,
    convert_range,
    make_form,
    parse_rational,
    render,
    residue_of,
    serialize,
    st_convert,
    two_bridge_slopes,
    validate,
)
from tunnelslopes import rationals
from tunnelslopes.rationals import _BLOCK, _add_run, _exact, _written, _written_text

from test_convert import Sub, outcome


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
        assert -INFINITY is INFINITY

    def test_str_forms(self):
        assert str(residue_of(Fraction(1, 3))) == "[ 1/3 ]"
        assert str(residue_of(Fraction(0))) == "[ 0 ]"
        assert str(residue_of(INFINITY)) == "[ 1/0 ]"

    def test_denominator_is_stored_q(self):
        assert residue_of(Fraction(-1, 3)).denominator == 3
        assert residue_of(Fraction(2, 3)).numerator == 2

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


# ResidueSlope and residue_of as they were when each copied its argument into
# a new Fraction: the references for the one-conversion path.


def reference_residue_value(value):
    """The value ResidueSlope(value) stored, or the error it raised."""
    if value is not INFINITY:
        value = Fraction(value)
        if not 0 <= value.numerator < value.denominator:
            raise ValueError(f"residue representative {value} is outside [0, 1)")
    return value


def reference_residue_of(r):
    return reference_residue_value(INFINITY if r is INFINITY else Fraction(r) % 1)


def reference_render(x):
    """render's text as the package once formatted it: the numerator alone
    when the denominator is 1, else numerator/denominator."""
    if x is INFINITY:
        return "1/0"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


residue_inputs = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3),
    st.builds(Sub, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(lambda q, p: f"{q}/{p}", st.integers(-50, 50), st.integers(1, 50)),
    st.sampled_from([INFINITY, "x", "1/0", 0.5]),
)


class TestExactBoundary:
    def test_exact_fractions_pass_through(self):
        x = Fraction(1, 3)
        assert _exact(x) is x
        assert ResidueSlope(x).value is x
        for other in (Sub(1, 3), "1/3", True, 2):
            assert type(_exact(other)) is Fraction and _exact(other) == Fraction(other)

    @given(residue_inputs)
    @settings(max_examples=300)
    def test_matches_the_copying_references(self, x):
        stored = outcome(lambda v: ResidueSlope(v).value, x)
        assert stored == outcome(reference_residue_value, x)
        assert outcome(lambda v: residue_of(v).value, x) == outcome(reference_residue_of, x)
        negated = outcome(lambda v: residue_of(v).negated().value, x)
        assert negated == outcome(lambda v: reference_residue_of(INFINITY if v is INFINITY else -Fraction(v)), x)
        assert outcome(render, x) == outcome(reference_render, x)


def projective_add_invert(c, x):
    """c + 1/x on the projective line, one step at a time in Fraction
    arithmetic: the reference step for the package's integer folds.

    Conventions: 1/INFINITY = 0, 1/0 = INFINITY, and a finite value plus
    INFINITY is INFINITY. The only undefined combination is c = INFINITY
    with x = 0, which asks for INFINITY + INFINITY.
    """
    if x is INFINITY:
        inverted = Fraction(0)
    elif x == 0:
        inverted = INFINITY
    else:
        inverted = 1 / Fraction(x)
    if c is INFINITY:
        if inverted is INFINITY:
            raise IndeterminateFormError("INFINITY + INFINITY is indeterminate")
        return INFINITY
    if inverted is INFINITY:
        return INFINITY
    return Fraction(c) + inverted


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


def traced_peak(f, *args):
    """(f(*args), the peak of the memory that tracemalloc saw it allocate)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestAddRun:
    def test_an_append_stores_the_callers_run(self):
        runs = [(1, 2, 3)]
        for run in [(2, 2, 1), (2, 3, 4), (-1, None, 1)]:
            _add_run(runs, run)
            assert runs[-1] is run
        assert runs == [(1, 2, 3), (2, 2, 1), (2, 3, 4), (-1, None, 1)]

    def test_equal_keys_add_their_counts(self):
        runs = [(1, -1, 2)]
        _add_run(runs, (1, -1, 5))
        assert runs == [(1, -1, 7)]
        runs = []
        for run in [(3, None, 1), (3, None, 1), (3, None, 2)]:
            _add_run(runs, run)
        assert runs == [(3, None, 4)]

    def test_an_equal_first_field_with_a_different_key_appends(self):
        runs = [(3, None, 1)]
        for run in [(3, 1, 1), (3, 1, 2), (3, -1, 1)]:
            _add_run(runs, run)
        assert runs == [(3, None, 1), (3, 1, 3), (3, -1, 1)]

    def test_a_merge_keeps_the_first_runs_key(self):
        # parse reads "3, 3/1" as one run of one Fraction, the first token's.
        first = Fraction(3)
        runs: list = []
        _add_run(runs, (first, 2))
        _add_run(runs, (Fraction(3), 5))
        assert runs == [(Fraction(3), 7)]
        assert runs[0][0] is first


counts = st.integers(0, 3 * _BLOCK)


class TestWriteOut:
    @given(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * 2) | st.just(()), counts), max_size=6))
    def test_items_are_the_concatenation(self, pieces):
        values = _written(pieces)
        assert values == [item for part, count in pieces for _ in range(count) for item in part]
        at = 0
        for part, count in pieces:
            run = values[at : at + len(part) * count]
            assert all(a is b for a, b in zip(run, part * count))  # shared, not copied
            at += len(run)

    @given(st.lists(st.tuples(st.text("0123456789/, ", max_size=4), counts), max_size=6))
    def test_text_is_the_concatenation(self, pieces):
        assert _written_text(pieces) == "".join(text * count for text, count in pieces)

    def test_too_large_is_refused_before_its_long_runs_are_built(self, monkeypatch):
        # A text is budgeted at 2 B a character and an item at 8 B. Under 10**6 B,
        # 0.5 MB of text and 0.8 MB of items fit, 1.1 MB of text and 1.6 MB of
        # items do not. Under 10**4 B, one run of 1000 fits, but not 20 of them,
        # though none is longer than _BLOCK. The message names the longest run,
        # also where the total passes the budget only at a later, shorter one:
        # 0.4 + 0.15 MB of text, 0.8 + 0.24 MB of items.
        for memory, write, pieces, longest in [
            (10**6, _written_text, [(", 1/3", 10**5), (", 13/5", 10**5)], 10**5),
            (10**6, _written, [((1,), 10**5), ((2,), 10**5)], 10**5),
            (10**4, _written_text, [(", 1/3", 1000)] * 20, 1000),
            (10**4, _written, [((i,), 1000) for i in range(20)], 1000),
            (10**6, _written_text, [("ab", 2 * 10**5), ("c", 15 * 10**4)], 2 * 10**5),
            (10**6, _written, [((1,), 10**5), ((2,), 3 * 10**4)], 10**5),
        ]:
            monkeypatch.setattr(rationals, "_budget", memory)
            write([pieces[0]])
            with pytest.raises(MemoryError, match=f"^a run of {longest} equal values cannot be written out$"):
                traced_peak(write, pieces)
            _, peak = traced_peak(lambda: pytest.raises(MemoryError, write, pieces))
            assert peak < 4096

    def test_a_text_is_budgeted_with_its_printed_copy(self, monkeypatch):
        # Printing a text makes an encoded copy of it, so writing out and
        # printing 0.6 MB of text takes 1.2 MB: more than 10**6 B.
        monkeypatch.setattr(rationals, "_budget", 10**6)
        with pytest.raises(MemoryError, match=f"^a run of {3 * 10**5} equal values cannot be written out$"):
            _written_text([("ab", 3 * 10**5)])

    @pytest.mark.parametrize(
        "pages,limit_as,limit_data,memory",
        [
            (1000, -1, -1, 4096 * 1000),  # no resource limit
            (1000, 10**6, -1, 10**6),  # the soft RLIMIT_AS
            (1000, -1, 2 * 10**6, 2 * 10**6),  # the soft RLIMIT_DATA
            (1000, 3 * 10**6, 2 * 10**6, 2 * 10**6),  # the least of them
            (10, 10**6, 2 * 10**6, 40960),  # the machine's memory
            (None, 10**6, -1, 10**6),  # the machine's memory unknown
            (None, -1, -1, sys.maxsize),
        ],
    )
    def test_resource_limits_bound_the_memory(self, monkeypatch, pages, limit_as, limit_data, memory):
        def sysconf(name):
            if pages is None:
                raise ValueError(name)
            return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name]

        soft = {"AS": limit_as, "DATA": limit_data}
        fake = SimpleNamespace(
            RLIMIT_AS="AS", RLIMIT_DATA="DATA", RLIM_INFINITY=-1, getrlimit=lambda name: (soft[name], -1)
        )
        monkeypatch.setattr(rationals.os, "sysconf", sysconf)
        monkeypatch.setitem(sys.modules, "resource", fake)
        monkeypatch.setattr(rationals, "_CGROUP_LIST", "/nonexistent/cgroup")  # no cgroup limit
        assert rationals._memory() == memory

    def test_unknown_memory_is_taken_as_unbounded(self, monkeypatch):
        def sysconf(name):
            raise ValueError(name)

        monkeypatch.setattr(rationals.os, "sysconf", sysconf)
        monkeypatch.setitem(sys.modules, "resource", None)  # a platform without resource limits
        monkeypatch.setattr(rationals, "_CGROUP_LIST", "/nonexistent/cgroup")
        assert rationals._memory() == sys.maxsize

    # A fake cgroup tree: the list of the process's cgroups, as in
    # /proc/self/cgroup, and the file systems mounted under one root. A limit
    # file that is a directory stands for one that cannot be read.
    @pytest.mark.parametrize(
        "cgroups,files,memory",
        [
            ("0::/a/b\n", {"a/b/memory.max": "3000000\n"}, 3 * 10**6),  # v2
            ("0::/\n", {"memory.max": "3000000\n"}, 3 * 10**6),  # v2, at the root
            ("0::/a/b\n", {"a/b/memory.max": "max\n"}, 4 * 10**6),  # v2 without a limit
            ("0::/a/b\n", {"a/memory.max": "3000000\n"}, 3 * 10**6),  # a parent's limit only
            ("4:memory:/x\n3:cpuset:/jobs\n", {"memory/x/memory.limit_in_bytes": "2000000\n"}, 2 * 10**6),  # v1
            ("4:cpu,memory:/x\n", {"memory/x/memory.limit_in_bytes": "2000000\n"}, 2 * 10**6),
            ("3:cpuset:/x\n", {"memory/x/memory.limit_in_bytes": "2000000\n"}, 4 * 10**6),
            # a hybrid tree takes the least of the two
            ("4:memory:/x\n0::/y\n", {"memory/x/memory.limit_in_bytes": "2000000", "y/memory.max": "5000000"}, 2 * 10**6),
            ("4:memory:/x\n0::/y\n", {"memory/x/memory.limit_in_bytes": "3000000", "y/memory.max": "1000000"}, 10**6),
            ("0::/a\n", {}, 4 * 10**6),  # a missing file
            ("0::/a\n", {"a/memory.max/": ""}, 4 * 10**6),  # an unreadable file
            (None, {}, 4 * 10**6),  # no list of cgroups
            # the least of the cgroup and its ancestors, but not its children
            ("4:memory:/x/y\n", {"memory/x/memory.limit_in_bytes": "2000000\n"}, 2 * 10**6),
            ("0::/a/b\n", {"a/b/memory.max": "3000000\n", "a/memory.max": "2000000\n"}, 2 * 10**6),
            ("0::/a/b\n", {"a/b/memory.max": "2000000\n", "memory.max": "3000000\n"}, 2 * 10**6),
            ("0::/a/b\n", {"a/b/c/memory.max": "3000000\n"}, 4 * 10**6),
        ],
    )
    def test_the_cgroup_limit_bounds_the_memory(self, monkeypatch, tmp_path, cgroups, files, memory):
        root = tmp_path / "cgroup"
        for name, text in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if name.endswith("/"):
                path.mkdir()
            else:
                path.write_text(text)
        if cgroups is not None:
            (tmp_path / "list").write_text(cgroups)
        monkeypatch.setattr(rationals, "_CGROUP_LIST", str(tmp_path / "list"))
        monkeypatch.setattr(rationals, "_CGROUP_ROOT", str(root))
        monkeypatch.setattr(rationals.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4000, "SC_PHYS_PAGES": 1000}[name])
        monkeypatch.setitem(sys.modules, "resource", None)
        assert rationals._memory() == memory

    def test_the_budget_is_read_once_by_the_first_write_out(self, monkeypatch):
        reads = []
        monkeypatch.setattr(rationals, "_memory", lambda: reads.append(1) or 10**6)
        monkeypatch.setattr(rationals, "_budget", 0)
        _written([((1,), 10)])
        _written_text([("ab", 10)])
        assert (reads, rationals._budget) == ([1], 10**6)
        with pytest.raises(MemoryError):
            _written([((1,), 10**6)])
        assert reads == [1]

    def test_a_long_text_takes_little_more_than_itself(self):
        text, peak = traced_peak(_written_text, [("[ 1/3 ]", 1), (", 3", 10**6), (", 5/2", 1)])
        assert len(text) == 3 * 10**6 + 12
        assert peak < 1.1 * len(text)

    def test_beyond_any_index(self):
        with pytest.raises(MemoryError, match=f"^a run of {10**30} blocks cannot be written out$"):
            _written([((1, 2), 10**30)], "blocks")
        with pytest.raises(MemoryError):
            _written_text([(", 1/3", 10**30)])


class TestExponents:
    @pytest.mark.parametrize("text", ["1e100000000", "1e4301", "1e-99999999", " 2E3187291_000 "])
    def test_an_exponent_past_the_digit_limit_is_refused_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^not a rational: {text!r}$"):
            parse_rational(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e3", 1000),
            ("3.5e0", Fraction(7, 2)),
            ("-2.5E-1", Fraction(-1, 4)),
            ("1e4300", Fraction(10) ** 4300),
        ],
    )
    def test_smaller_exponents_parse(self, text, value):
        assert parse_rational(text) == value


HUGE = 10**5000  # 5001 digits, past the default 4300-digit int/str limit
THIRD = ResidueSlope(Fraction(1, 3))
LONG_RUN = (Fraction(3), HUGE)


@pytest.mark.parametrize(
    "call, error, words",
    [
        pytest.param(lambda: ResidueSlope(Fraction(HUGE + 1, HUGE)), ValueError, "outside [0, 1)", id="residue"),
        pytest.param(lambda: SL2Matrix(HUGE, 0, 0, 1), ValueError, "is not 1", id="matrix"),
        pytest.param(lambda: st_convert(Fraction(2 * HUGE, 3)), ParityError, "odd numerator", id="convert"),
        pytest.param(
            lambda: validate(TunnelParams(THIRD, (3, 5), (2 * HUGE,))),
            ValidationError,
            "binary-values",
            id="bit",
        ),
        pytest.param(
            lambda: validate(TunnelParams._new(THIRD, (LONG_RUN,), ())),
            ValidationError,
            "binaries-length",
            id="bit-count",
        ),
        pytest.param(
            lambda: validate(TunnelParams(ResidueSlope(Fraction(1, 2 * HUGE)), (3,))),
            ValidationError,
            "m0-denominator-parity",
            id="m0",
        ),
        pytest.param(
            lambda: validate(TunnelParams(THIRD, (2 * HUGE, 3), (0,))),
            ValidationError,
            "intermediate-numerator-parity",
            id="slope",
        ),
        pytest.param(
            lambda: validate(
                TunnelParams._new(THIRD, (LONG_RUN, (Fraction(2), 1), (Fraction(3), 1)), ((0, HUGE + 1),))
            ),
            ValidationError,
            "intermediate-numerator-parity",
            id="slope-index",
        ),
        pytest.param(lambda: make_form(2 * HUGE, 3), LinkInvariantError, "is even", id="even-b"),
        pytest.param(lambda: make_form(3 * HUGE + 3, 3), ValueError, "not coprime", id="coprime"),
        pytest.param(lambda: make_form(HUGE + 1, HUGE + 2), ValueError, "does not exceed 1", id="unnormalized"),
        pytest.param(
            lambda: two_bridge_slopes(
                TwoBridgeForm(33, 19, SimpleNamespace(runs=((1, -2, HUGE), (-1, 0, 1), (1, 1, 1))))
            ),
            CablingContradictionError,
            "has twist count 0",
            id="zero-twist",
        ),
        pytest.param(lambda: convert_range(-HUGE, 1, 3), ValueError, "must be positive", id="range-p"),
        pytest.param(lambda: convert_range(3, HUGE, 1), ValueError, "empty range", id="range-q"),
        pytest.param(
            lambda: serialize(two_bridge_slopes(make_form(HUGE + 1, HUGE - 1))),
            MemoryError,
            "cannot be written out",
            id="write-out",
        ),
    ],
)
def test_a_message_past_the_digit_limit_keeps_its_exception(call, error, words):
    # Under the default limit str() of a 5001-digit value raises a bare
    # ValueError; each message must still reach its caller as its own class.
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert words in str(info.value)
    assert getattr(info.value, "rule", words) == words  # a ValidationError keeps its rule
