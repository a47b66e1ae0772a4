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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import neg
from typing import Callable, Dict, Iterator, Tuple

from .rationals import INFINITY, ResidueSlope, _excerpt, render, residue_of


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


@dataclass(frozen=True)
class TunnelClass:
    kind: TunnelKind
    target: Target


@dataclass(frozen=True)
class TunnelParams:
    """The cabling parameters (m0, m1, ..., mn; s2, ..., sn) of a tunnel.

    Slopes become ``Fraction``s and binaries ``int``s; a tuple that already
    holds only those is kept as it is, with its elements shared.
    """

    m0: ResidueSlope
    slopes: Tuple[Fraction, ...] = ()
    binaries: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "slopes", _exact_tuple(self.slopes, Fraction))
        object.__setattr__(self, "binaries", _exact_tuple(self.binaries, int))


def _exact_tuple(values, kind) -> tuple:
    """values as a tuple of exactly type kind, converting only what is not."""
    if type(values) is tuple and {*map(type, values)} <= {kind}:
        return values
    return tuple(v if type(v) is kind else kind(v) for v in values)


def validate(t: TunnelParams) -> TunnelClass:
    """Check every tuple rule and classify the tunnel."""
    n = len(t.slopes)
    for s in t.binaries:
        if s not in (0, 1):
            raise ValidationError("binary-values", f"binaries must be 0 or 1, got {s}")
    expected = max(n - 1, 0)
    if len(t.binaries) != expected:
        raise ValidationError(
            "binaries-length",
            f"{n} cabling slopes need {expected} binaries, got {len(t.binaries)}",
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
            f"m0 = {t.m0} has even denominator, so its cabling ends the sequence",
        )
    for i, m in enumerate(t.slopes[:-1], start=1):
        if m.numerator % 2 == 0:
            raise ValidationError(
                "intermediate-numerator-parity",
                f"m{i} = {render(m)} has even numerator before the final cabling",
            )
    target = Target.KNOT if t.slopes[-1].numerator % 2 == 1 else Target.LINK
    kind = TunnelKind.SEMISIMPLE if all(s == 0 for s in t.binaries) else TunnelKind.REGULAR
    return TunnelClass(kind, target)


def mirror(t: TunnelParams) -> TunnelParams:
    """The parameters of the mirror-image tunnel: every slope negated. A run
    of one shared slope object is negated once and stays shared."""
    return TunnelParams(t.m0.negated(), tuple(_per_run(neg, t.slopes)), t.binaries)


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
    if not t.slopes:
        return t.m0.denominator // 2
    return abs(t.slopes[-1].numerator) // 2


def _per_run(f: Callable, slopes: Tuple[Fraction, ...]) -> Iterator:
    """f of each slope, computed once for a run of one shared object."""
    last = value = None
    for m in slopes:
        if m is not last:
            last, value = m, f(m)
        yield value


def _slope_text(t: TunnelParams) -> str:
    """'[ p/q ], m1, ..., mn': the text of ``serialize`` before the bits."""
    return ", ".join([str(t.m0), *_per_run(render, t.slopes)])


def serialize(t: TunnelParams) -> str:
    """Stable text form: '[ p/q ], m1, ..., mn ; s2...sn' (bits only when n >= 2)."""
    text = _slope_text(t)
    if len(t.slopes) >= 2:
        # "%d" writes an int as str does, for all of the bits in one step.
        text += " ; " + ("%d" * len(t.binaries)) % t.binaries
    return text


_RESIDUE_RE = re.compile(r"\s*\[\s*(-?\d+)(?:\s*/\s*(-?\d+))?\s*\]")


def parse(text: str) -> TunnelParams:
    """Inverse of serialize, raising ParseError with a position on bad input."""
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
    binaries: Tuple[int, ...] = ()
    if semicolon:
        bits = bits_part.strip()
        bit_pos = text.index(";", offset)
        if not bits:
            raise ParseError("missing binary string after ';'", bit_pos)
        if any(c not in "01" for c in bits):
            raise ParseError(f"binary string {_excerpt(bits)} must use only 0 and 1", bit_pos)
        binaries = tuple(int(c) for c in bits)
    return TunnelParams(m0, tuple(slopes), binaries)


def to_export(t: TunnelParams) -> Dict[str, object]:
    """Machine-readable form: m0, slopes, binaries, class, target, and the
    linking number when the tunnel belongs to a link. Rationals are rendered
    as exact strings so arbitrary precision survives the trip through JSON."""
    return _export(t, validate(t))


def _export(t: TunnelParams, cls: TunnelClass) -> Dict[str, object]:
    """``to_export`` of t, whose class ``validate`` gave as cls."""
    doc: Dict[str, object] = {
        "m0": render(t.m0.value),
        "slopes": list(_per_run(render, t.slopes)),
        "binaries": list(t.binaries),
        "class": cls.kind.value,
        "target": cls.target.value,
    }
    if cls.target is Target.LINK:
        doc["linking_number"] = _linking_number(t, cls)
    return doc
