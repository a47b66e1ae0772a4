"""The package's records against the frozen dataclasses they replaced.

The eight records are plain slotted classes on ``rationals._Record``. The
dataclass definitions they had are kept below, under the same names, as the
reference: for field values that Hypothesis draws, each record must match its
reference in repr, equality (also across classes), hash, keyword and default
construction, validation errors, copies, pickles and ``__match_args__``.
"""

import copy
import pickle
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import tunnelslopes as ts
from tunnelslopes import INFINITY, ProjectiveRational, Target, TunnelKind


def exact_tuple(values, kind):
    """values as a tuple of exactly type kind, converting what is not."""
    return tuple(v if type(v) is kind else kind(v) for v in values)


@dataclass(frozen=True)
class ResidueSlope:
    value: ProjectiveRational

    def __post_init__(self):
        if self.value is INFINITY:
            return
        v = Fraction(self.value)
        if not 0 <= v < 1:
            raise ValueError(f"residue representative {v} is outside [0, 1)")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class SL2Matrix:
    q: int
    s: int
    p: int
    r: int

    def __post_init__(self):
        if self.q * self.r - self.s * self.p != 1:
            raise ValueError(
                f"determinant of ({self.q} {self.s} / {self.p} {self.r}) is not 1"
            )


@dataclass(frozen=True)
class EvenCF:
    runs: Tuple[Tuple[int, Optional[int], int], ...]


@dataclass(frozen=True)
class TunnelClass:
    kind: TunnelKind
    target: Target


@dataclass(frozen=True)
class TunnelParams:
    m0: ResidueSlope
    slopes: Tuple[Fraction, ...] = ()
    binaries: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "slopes", exact_tuple(self.slopes, Fraction))
        object.__setattr__(self, "binaries", exact_tuple(self.binaries, int))


@dataclass(frozen=True)
class CablingStep:
    index: int
    k: int
    parity: str


@dataclass(frozen=True)
class TwoBridgeForm:
    b: int
    a: int
    expansion: EvenCF


@dataclass(frozen=True)
class OracleReport:
    name: str
    checked: int
    violations: Tuple[str, ...]


RECORDS = (
    "ResidueSlope",
    "SL2Matrix",
    "EvenCF",
    "TunnelClass",
    "TunnelParams",
    "CablingStep",
    "TwoBridgeForm",
    "OracleReport",
)
REFERENCE = SimpleNamespace(**{name: globals()[name] for name in RECORDS})
# Each record's parameters, in order.
PARAMETERS = {
    "ResidueSlope": ("value",),
    "SL2Matrix": ("q", "s", "p", "r"),
    "EvenCF": ("runs",),
    "TunnelClass": ("kind", "target"),
    "TunnelParams": ("m0", "slopes", "binaries"),
    "CablingStep": ("index", "k", "parity"),
    "TwoBridgeForm": ("b", "a", "expansion"),
    "OracleReport": ("name", "checked", "violations"),
}

# A record to build by name from its arguments; an argument may be a Spec too.
Spec = namedtuple("Spec", ("name", "args"))

small = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
residue_values = st.one_of(
    st.just(INFINITY),
    fractions.map(lambda f: f % 1),
    fractions,
    small,
    st.floats(),
    st.sampled_from(["1/3", "2/3", "x", ""]),
)
# Characters that repr quotes or escapes; a fixed alphabet also spares
# Hypothesis building its Unicode tables on a fresh checkout.
texts = st.text("ab '\"\\\n", max_size=4)


run_items = st.tuples(small, st.one_of(st.none(), small), st.integers(0, 3))


@st.composite
def expansions(draw):
    """Arguments of EvenCF: the runs of an expansion, or any short runs."""
    if draw(st.booleans()):
        return (ts.even_cf_expand(draw(fractions)).runs,)
    return (tuple(draw(st.lists(run_items, max_size=4))),)


@st.composite
def matrices(draw):
    """Arguments of SL2Matrix: a word's product, or four small integers."""
    if draw(st.booleans()):
        m = ts.word_product(draw(st.lists(small, max_size=5)))
        return m.q, m.s, m.p, m.r
    return tuple(draw(st.lists(small, min_size=4, max_size=4)))


slope_lists = st.lists(st.one_of(fractions, small), max_size=4)
ARGUMENTS = {
    "ResidueSlope": st.tuples(residue_values),
    "SL2Matrix": matrices(),
    "EvenCF": expansions(),
    "TunnelClass": st.tuples(st.sampled_from(TunnelKind), st.sampled_from(Target)),
    "TunnelParams": st.tuples(
        residue_values.map(lambda v: Spec("ResidueSlope", (v,))),
        slope_lists | slope_lists.map(tuple),
        st.lists(st.one_of(st.integers(0, 1), st.booleans()), max_size=3).map(tuple),
    ),
    "CablingStep": st.tuples(
        st.integers(-3, 300), small, st.sampled_from(["even", "odd", "both", ""])
    ),
    "TwoBridgeForm": st.tuples(
        st.integers(-99, 99), small, expansions().map(lambda args: Spec("EvenCF", args))
    ),
    "OracleReport": st.tuples(
        texts,
        st.integers(0, 9),
        st.lists(texts, max_size=2).map(tuple),
    ),
}


def specs_of(name):
    return ARGUMENTS[name].map(lambda args: Spec(name, args))


specs = st.sampled_from(RECORDS).flatmap(specs_of)


def build(ns, spec, keywords=False):
    """The record a spec names, with the classes of namespace ns."""
    args = [build(ns, a) if type(a) is Spec else a for a in spec.args]
    cls = getattr(ns, spec.name)
    if keywords:
        return cls(**dict(zip(PARAMETERS[spec.name], args)))
    return cls(*args)


def outcome(f, *args):
    """("value", f(*args)), or ("raised", type, text) of what it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def built(spec):
    """(record, reference record) of a spec, or (None, None) after checking
    that both raise the same error."""
    ours, ref = outcome(build, ts, spec), outcome(build, REFERENCE, spec)
    if ref[0] == "raised":
        assert ours == ref
        return None, None
    assert ours[0] == "value", ours
    return ours[1], ref[1]


@given(specs)
@settings(max_examples=400)
def test_construction_repr_hash_and_errors_match_the_dataclasses(spec):
    ours, ref = built(spec)
    if ref is None:
        return
    assert type(ours) is getattr(ts, spec.name)
    assert repr(ours) == repr(ref)
    assert hash(ours) == hash(ref)
    assert build(ts, spec, keywords=True) == ours
    assert type(ours).__match_args__ == type(ref).__match_args__


@given(st.data())
@settings(max_examples=400)
def test_equality_matches_the_dataclasses(data):
    spec = data.draw(specs)
    other = data.draw(specs | specs_of(spec.name))
    (x, ref_x), (y, ref_y) = built(spec), built(other)
    if ref_x is None or ref_y is None:
        return
    assert (x == y, x != y) == (ref_x == ref_y, ref_x != ref_y)
    twin = build(ts, spec)
    assert (x == twin, x != twin) == (True, False)
    # A record never equals a record of another class, nor its field tuple.
    for stranger in (ref_x, ref_y, tuple(getattr(x, f) for f in type(x).__match_args__)):
        assert (x == stranger, x != stranger, stranger == x) == (False, True, False)


@given(specs)
@settings(max_examples=200)
def test_copies_and_pickles_are_equal_records(spec):
    ours, ref = built(spec)
    if ref is None:
        return
    twins = [pickle.loads(pickle.dumps(ours, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(ours), copy.deepcopy(ours)]:
        assert type(twin) is type(ours)
        assert (twin == ours, hash(twin), repr(twin)) == (True, hash(ours), repr(ours))


@given(specs)
@settings(max_examples=200)
def test_fields_cannot_be_assigned_or_deleted(spec):
    ours, ref = built(spec)
    if ref is None:
        return
    before = repr(ours)
    for field in type(ours).__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(ours, field, 0)
        with pytest.raises(AttributeError):
            delattr(ours, field)
    assert repr(ours) == before


def test_defaults_match_the_dataclasses():
    ours = ts.TunnelParams(ts.ResidueSlope(Fraction(1, 3)))
    assert repr(ours) == repr(TunnelParams(ResidueSlope(Fraction(1, 3))))
    assert ours.slopes == ours.binaries == ()


def test_records_match_by_position():
    match ts.make_form(33, 19):
        case ts.TwoBridgeForm(b, a, ts.EvenCF(runs)):
            assert (b, a, runs) == (33, 19, ts.even_cf_expand(Fraction(33, 19)).runs)
        case _:
            pytest.fail("TwoBridgeForm did not match by position")


def test_infinity_survives_every_pickle_protocol():
    for n in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ts.ResidueSlope(INFINITY), n)).is_infinite
    # Copies, like pickles, come back as the module's one instance.
    residue = ts.ResidueSlope(INFINITY)
    for value in [INFINITY, residue.value]:
        assert copy.copy(value) is INFINITY
        assert copy.deepcopy(value) is INFINITY
    assert copy.deepcopy(residue).value is INFINITY


def test_copies_and_pickles_do_not_call_the_constructors(monkeypatch):
    m0 = ts.ResidueSlope(Fraction(1, 3))
    records = [ts.SL2Matrix(2, 1, 1, 1), m0, ts.TunnelParams(m0, (3, 5), (0,))]

    def refuse(self, *args):
        raise AssertionError("a copy called the checking constructor")

    monkeypatch.setattr(ts.SL2Matrix, "__init__", refuse)
    monkeypatch.setattr(ts.ResidueSlope, "__init__", refuse)
    for record in records:
        twins = [pickle.loads(pickle.dumps(record, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(record), copy.deepcopy(record)]:
            assert type(twin) is type(record) and twin == record
