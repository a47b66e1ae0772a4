"""Cabling-parameter tuples of knot and link tunnels.

A tunnel is recorded as ((m0, m1, ..., mn), (s2, ..., sn)): a residue mod 1
for the first cabling, a rational slope for each later cabling, and one bit
per cabling from the third on. Validation enforces the parity rules that
make a tuple realizable: every numerator before the last is odd (the
residue's denominator playing that role for m0), and only the final slope
may be even, in which case the tunnel belongs to a two-component link.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import groupby

from .rationals import (
    INFINITY,
    ResidueSlope,
    _add_run,
    _excerpt,
    _Record,
    _set,
    _shown,
    _written,
    _written_text,
    parse_rational,
    render,
    residue_of,
)


class ValidationError(ValueError):
    """A tuple violates one of the parameterization rules."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class ParseError(ValueError):
    """Malformed tuple text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TunnelKind(Enum):
    TRIVIAL_KNOT = "TrivialKnot"
    TRIVIAL_LINK = "TrivialLink"
    SIMPLE_KNOT = "SimpleKnot"
    SIMPLE_LINK = "SimpleLink"
    SEMISIMPLE = "Semisimple"
    REGULAR = "Regular"


class Target(Enum):
    KNOT = "Knot"
    LINK = "Link"


class TunnelClass(_Record):
    __slots__ = ("kind", "target")

    def __init__(self, kind: TunnelKind, target: Target):
        _set(self, "kind", kind)
        _set(self, "target", target)


class TunnelParams(_Record):
    """The cabling parameters (m0, m1, ..., mn; s2, ..., sn) of a tunnel.

    Stored as m0 and runs: ``slope_runs`` holds the maximal runs of equal
    consecutive slopes as (Fraction, count), and ``binary_runs`` those of the
    bits as (int, count). The constructor turns slopes into ``Fraction``s and
    bits into ``int``s, keeping an element that already has that type, and
    each run keeps its first element. Equality, copies and pickles go by the
    runs, so they cost O(runs) however many slopes the runs stand for.
    ``slopes`` and ``binaries`` are written out from the runs on every read,
    one shared object per run, at O(n) cost, and so are the hash and the repr
    (those of a frozen dataclass of the fields m0, slopes and binaries) and
    ``to_export``; a run too long to write out raises ``MemoryError``.

    ``TunnelParams._new(m0, slope_runs, binary_runs)`` takes runs as they are
    stored, unchecked. They must be maximal, since equality compares the
    runs while the hash compares the written-out values, and of exact types,
    as the constructor would store them.
    """

    __slots__ = ("m0", "slope_runs", "binary_runs")
    __match_args__ = ("m0", "slopes", "binaries")

    def __init__(
        self, m0: ResidueSlope, slopes: tuple[Fraction, ...] = (), binaries: tuple[int, ...] = ()
    ):
        _set(self, "m0", m0)
        _set(self, "slope_runs", _runs(slopes, Fraction))
        _set(self, "binary_runs", _runs(binaries, int))

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(_values(self.slope_runs))

    @property
    def binaries(self) -> tuple[int, ...]:
        return tuple(_values(self.binary_runs))


def _runs(values, kind) -> tuple:
    """The maximal runs (value, count) of equal consecutive values, each
    value of exactly type kind: an element of another type is converted."""
    exact = (v if type(v) is kind else kind(v) for v in values)
    return tuple([(value, len(list(run))) for value, run in groupby(exact)])


def _values(runs) -> list:
    """The values that runs (value, count) stand for, one shared object per run."""
    return _written([((value,), count) for value, count in runs])


def _length(runs) -> int:
    return sum([count for _, count in runs])


def validate(t: TunnelParams) -> TunnelClass:
    """Check every tuple rule and classify the tunnel."""
    slope_runs, binary_runs = t.slope_runs, t.binary_runs
    n, bits = _length(slope_runs), _length(binary_runs)
    for s, _ in binary_runs:
        if s not in (0, 1):
            raise ValidationError("binary-values", f"binaries must be 0 or 1, got {_shown(s)}")
    expected = max(n - 1, 0)
    if bits != expected:
        raise ValidationError(
            "binaries-length",
            f"{_shown(n)} cabling slopes need {_shown(expected)} binaries, got {_shown(bits)}",
        )
    if t.m0.is_infinite:
        if n:
            raise ValidationError(
                "trivial-link-arity", "the infinite residue admits no further cablings"
            )
        return TunnelClass(TunnelKind.TRIVIAL_LINK, Target.LINK)
    if t.m0.value == 0:
        if n:
            raise ValidationError(
                "primitive-arity", "the zero residue admits no further cablings"
            )
        return TunnelClass(TunnelKind.TRIVIAL_KNOT, Target.KNOT)
    q0 = t.m0.denominator
    if n == 0:
        if q0 % 2 == 1:
            return TunnelClass(TunnelKind.SIMPLE_KNOT, Target.KNOT)
        return TunnelClass(TunnelKind.SIMPLE_LINK, Target.LINK)
    if q0 % 2 == 0:
        raise ValidationError(
            "m0-denominator-parity",
            f"m0 = {_shown(t.m0)} has even denominator, so its cabling ends the sequence",
        )
    i = 1  # the index of the run's first slope
    for m, count in slope_runs:
        # Only the final slope mn may have an even numerator.
        if m.numerator % 2 == 0 and i < n:
            raise ValidationError(
                "intermediate-numerator-parity",
                f"m{_shown(i)} = {_shown(m)} has even numerator before the final cabling",
            )
        i += count
    target = Target.KNOT if slope_runs[-1][0].numerator % 2 == 1 else Target.LINK
    kind = TunnelKind.SEMISIMPLE if all(s == 0 for s, _ in binary_runs) else TunnelKind.REGULAR
    return TunnelClass(kind, target)


def mirror(t: TunnelParams) -> TunnelParams:
    """The parameters of the mirror-image tunnel: every slope negated, one
    negation per run."""
    slope_runs = tuple([(-m, count) for m, count in t.slope_runs])
    return TunnelParams._new(t.m0.negated(), slope_runs, t.binary_runs)


def is_amphichiral(t: TunnelParams) -> bool:
    """Whether the tunnel equals its own mirror image."""
    return mirror(t) == t


def linking_number(t: TunnelParams) -> int:
    """Half the final even numerator (or even residue denominator) of a link tunnel."""
    return _linking_number(t, validate(t))


def _linking_number(t: TunnelParams, cls: TunnelClass) -> int:
    """``linking_number`` of t, whose class ``validate`` gave as cls."""
    if cls.target is not Target.LINK:
        raise ValueError("linking number is defined only for link tunnels")
    if t.m0.is_infinite:
        return 0
    if not t.slope_runs:
        return t.m0.denominator // 2
    return abs(t.slope_runs[-1][0].numerator) // 2


def _slope_pieces(t: TunnelParams) -> list:
    return [(str(t.m0), 1), *[(", " + render(m), count) for m, count in t.slope_runs]]


def _slope_text(t: TunnelParams) -> str:
    """'[ p/q ], m1, ..., mn': the text of ``serialize`` before the bits."""
    return _written_text(_slope_pieces(t))


def serialize(t: TunnelParams) -> str:
    """Stable text form: '[ p/q ], m1, ..., mn ; s2...sn' (bits only when n >= 2)."""
    pieces = _slope_pieces(t)
    if _length(t.slope_runs) >= 2:
        pieces.append((" ; ", 1))
        pieces += [(str(s), count) for s, count in t.binary_runs]
    return _written_text(pieces)


_RESIDUE_RE = re.compile(r"\s*\[\s*(-?\d+)(?:\s*/\s*(-?\d+))?\s*\]")
_BIT_RUN_RE = re.compile("0+|1+")
# A stretch of equal slope tokens: a comma, a token, and each later ',token'
# with the same text that ends at a comma or at the end. The possessive '*+'
# keeps no backtracking state, so a long stretch is one match in C.
_STRETCH_RE = re.compile(r",([^,]*)(?:,\1(?=,|\Z))*+")


def _stripped(text: str, start: int, stop: int) -> tuple[int, int]:
    """The bounds of text[start:stop].strip() in text, found without a copy."""
    while start < stop and text[start].isspace():
        start += 1
    while stop > start and text[stop - 1].isspace():
        stop -= 1
    return start, stop


def parse(text: str) -> TunnelParams:
    """Inverse of serialize, raising ParseError with a position on bad input.

    The text is read by index, each stretch of equal slope tokens with one
    match, as one run with one ``Fraction``, so memory follows the runs, not
    the text's length.
    """
    match = _RESIDUE_RE.match(text)
    if not match:
        raise ParseError("expected a residue of the form '[ p/q ]'", 0)
    parts = []
    for g in (1, 2):
        try:
            parts.append(int(match.group(g) or 1))
        except ValueError:  # past the int/str digit limit
            raise ParseError(f"bad residue {_excerpt(match.group(g))}", match.start(g)) from None
    num, den = parts
    if num == den == 0:
        raise ParseError("residue 0/0 is degenerate", match.start(1))
    m0 = residue_of(INFINITY if den == 0 else Fraction(num, den))
    offset = match.end()
    semicolon = text.find(";", offset)
    start, stop = _stripped(text, offset, len(text) if semicolon < 0 else semicolon)
    runs: list = []
    if start < stop:
        if text[start] != ",":
            raise ParseError("expected ',' before the cabling slopes", offset)
        # A stretch of equal token texts is read once, as one run; an error
        # in it stands at its first token.
        while start < stop:
            stretch = _STRETCH_RE.match(text, start, stop)
            cleaned = stretch[1].strip()
            if not cleaned:
                raise ParseError("empty slope entry", stretch.start(1))
            try:
                m = parse_rational(cleaned)
            except ValueError:
                raise ParseError(f"bad slope {_excerpt(cleaned)}", stretch.start(1)) from None
            count = (stretch.end() - start) // (stretch.end(1) - start)
            _add_run(runs, (m, count))  # merges an equal value written another way
            start = stretch.end()
    binary_runs: tuple = ()
    if semicolon >= 0:
        start, stop = _stripped(text, semicolon + 1, len(text))
        if start == stop:
            raise ParseError("missing binary string after ';'", semicolon)
        if text.count("0", start, stop) + text.count("1", start, stop) != stop - start:
            bits = text[start:stop]
            raise ParseError(f"binary string {_excerpt(bits)} must use only 0 and 1", semicolon)
        bit_runs = _BIT_RUN_RE.finditer(text, start, stop)
        binary_runs = tuple([(int(text[run.start()]), run.end() - run.start()) for run in bit_runs])
    return TunnelParams._new(m0, tuple(runs), binary_runs)


def to_export(t: TunnelParams) -> dict[str, object]:
    """Machine-readable form: m0, slopes, binaries, class, target, and the
    linking number when the tunnel belongs to a link. Rationals are rendered
    as exact strings so arbitrary precision survives the trip through JSON."""
    return _export(t, validate(t))


def _export(t: TunnelParams, cls: TunnelClass) -> dict[str, object]:
    """``to_export`` of t, whose class ``validate`` gave as cls."""
    doc: dict[str, object] = {
        "m0": render(t.m0.value),
        "slopes": _values([(render(m), count) for m, count in t.slope_runs]),
        "binaries": _values(t.binary_runs),
        "class": cls.kind.value,
        "target": cls.target.value,
    }
    if cls.target is Target.LINK:
        doc["linking_number"] = _linking_number(t, cls)
    return doc
