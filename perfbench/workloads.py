"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload builds a fixed pool of inputs from its seed; the timed run
replays the pool in whole passes. Where the generator's cost per input is
heavy-tailed (the even expansion is Theta(p) long on parabolic runs), the
pool is filled by quota: a fixed number of draws per bin (a fraction of an
octave) of expansion length or slope count, taken in draw order from the
acceptance generator. Every seed then carries the same length profile and
the same amount of work, while the seed still changes every input.

An operation takes one input and returns its outputs and the seconds to its
first line of output (None where it has none), which is what
`first_line_ms` reports.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, List, Optional

import tunnelslopes as ts
from tunnelslopes import cli

ROOT = Path(__file__).resolve().parents[1]


def _acceptance():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sample_odd_slopes = _acceptance().sample_odd_slopes


def two_bridge_draws(seed: int) -> Iterator[tuple]:
    """Endless (b, a) draws of the loop in test_acceptance.test_two_bridge_structure."""
    rng = random.Random(seed)
    while True:
        b = rng.randint(3, 10**5) | 1
        a = rng.randint(1, b - 1)
        if gcd(b, a) != 1:
            continue
        if rng.random() < 0.5:
            a -= b
        yield b, a


# ---------------------------------------------------------------- input sizes


def even_cf_raw(q: int, p: int, limit: Optional[int] = None) -> List[int]:
    """The raw even expansion of q/p (p > 0) by the greedy descent of
    contfrac.even_cf_expand, on plain ints; stops after ``limit`` entries."""
    raw: List[int] = []
    at_a_slot = True
    while limit is None or len(raw) < limit:
        if p == 1:
            if not at_a_slot or q % 2 == 0:
                raw.append(q)
            else:
                raw.extend((q - 1, 1) if q > 0 else (q + 1, -1))
            break
        e = 2 * ((q + p) // (2 * p))
        raw.append(e)
        q, p = p, q - e * p
        if p < 0:
            q, p = -q, -p
        at_a_slot = not at_a_slot
    return raw


def form_units(b: int, a: int, limit: Optional[int] = None) -> int:
    """sum |a_i| of the even expansion of b/a: one more than the form's slope count."""
    if a < 0:
        b, a = -b, -a
    return sum(abs(e) // 2 for e in even_cf_raw(b, a, limit)[0::2])


def both_forms(b: int, a: int) -> tuple:
    """The two normalized (b, a') that ``normalize_input`` builds forms for."""
    residue = a % b
    return (b, residue), (b, residue - b)


def fill_quotas(draws, size: Callable[[object], int], quotas: dict, per_octave: int = 2) -> list:
    """Keep draws until bin k = [2**(k/per_octave), 2**((k+1)/per_octave)) of size() holds quotas[k] of them."""
    need = dict(quotas)
    pool = []
    for count, item in enumerate(draws):
        k = (size(item) ** per_octave).bit_length() - 1
        if need.get(k, 0) > 0:
            need[k] -= 1
            pool.append(item)
            if not any(need.values()):
                return pool
        if count > 10**6:
            break
    raise RuntimeError(f"generator exhausted with quotas still open: {need}")


def spread_draws(draws, size: Callable[[object], int], count: int, run: int = 20) -> list:
    """`count` draws spread evenly over the distribution of size(): of the
    first count * run draws, sorted by size, the middle one of each run."""
    sample = sorted(islice(draws, count * run), key=size)
    return [sample[j * run + run // 2] for j in range(count)]


def profile(rationals) -> dict:
    """Input profile: expansion lengths, the top 1% entry share, largest digit count."""
    lengths = sorted(len(even_cf_raw(x.numerator, x.denominator)) for x in rationals)
    n = len(lengths)
    top = lengths[n - max(1, n // 100):]
    digits = max(max(len(str(abs(x.numerator))), len(str(x.denominator))) for x in rationals)
    return {
        "expansions": n,
        "length_p50": lengths[n // 2],
        "length_p99": lengths[min(n - 1, (99 * n) // 100)],
        "length_max": lengths[-1],
        "top1pct_entry_share": sum(top) / sum(lengths),
        "max_digits": digits,
    }


# ---------------------------------------------------------- convert workloads

# Draws per eighth of an octave of expansion length among the 99.3% of
# sample_odd_slopes draws shorter than 512 entries, scaled from 2 * 10**5
# draws of seed 0 (median 18 entries) to a pool of 1985. Bins this narrow
# hold the tail percentile (the 11th longest input, the shorter of the two
# in [304, 332)) and the median (18 or 19 entries) nearly still from seed to seed.
UNIFORM_QUOTAS = {
    16: 2, 20: 17, 24: 65, 26: 135, 28: 196, 30: 214, 32: 198, 33: 169, 34: 139, 35: 109, 36: 91,
    37: 74, 38: 61, 39: 51, 40: 79, 41: 58, 42: 24, 43: 38, 44: 31, 45: 25, 46: 30, 47: 16, 48: 19,
    49: 21, 50: 13, 51: 14, 52: 11, 53: 9, 54: 10, 55: 8, 56: 8, 57: 7, 58: 5, 59: 6, 60: 4, 61: 4,
    62: 4, 63: 3, 64: 3, 65: 3, 66: 2, 67: 2, 68: 2, 69: 2, 70: 2, 71: 1,
}
# The longer 0.7% is convert-parabolic's: a fixed count per half-octave from 512 to 4095 entries.
TAIL_QUOTAS = {18: 3, 19: 2, 20: 2, 21: 1, 22: 1, 23: 1}


def _expansion_length(x: Fraction) -> int:
    return len(even_cf_raw(x.numerator, x.denominator, 1 << 13))


def build_uniform(seed: int, tiny: bool) -> list:
    quotas = {k: max(1, n // 40) for k, n in UNIFORM_QUOTAS.items()} if tiny else UNIFORM_QUOTAS
    return fill_quotas(sample_odd_slopes(2 * 10**4, seed), _expansion_length, quotas, per_octave=8)


def _even_near(rng: random.Random, exponent: float) -> int:
    # Within +2% of 10**exponent, so every seed keeps the same length profile.
    return 2 * round(10**exponent * (1 + 0.02 * rng.random()) / 2)


def build_parabolic(seed: int, tiny: bool) -> list:
    """The adversarial tail, where expansion length and bigint cost dominate."""
    rng = random.Random(seed)
    pool = []
    # (p +- 1)/p over two decades: expansions of about p entries.
    for exponent, count in ((3, 2), (3.5, 1)) if tiny else ((3, 12), (3.5, 6), (4, 1), (5, 1)):
        for _ in range(count):
            p = _even_near(rng, exponent)
            pool.append(Fraction(p + rng.choice((1, -1)), p))
    # Slopes next to odd integers, (2k+1) + 1/N: about N entries.
    for exponent, count in ((3, 1),) if tiny else ((3, 6), (3.5, 2)):
        for _ in range(count):
            n = _even_near(rng, exponent)
            pool.append(Fraction((2 * rng.randint(-500, 499) + 1) * n + 1, n))
    # The longest expansions the uniform generator draws, under another seed.
    quotas = {18: 1} if tiny else TAIL_QUOTAS
    pool += fill_quotas(sample_odd_slopes(6 * 10**4, seed + 7919), _expansion_length, quotas)
    # Random 100-1000 digit slopes for bigint cost, kept when their expansion
    # holds 4 to 7 entries per digit, the middle of its length distribution;
    # their own parabolic runs (up to 200 entries per digit) are the strata above.
    for digits in (100,) if tiny else (100, 100, 200, 300, 500, 1000):
        while True:
            q = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            p = rng.randrange(10 ** (digits - 1), 10**digits)
            if gcd(q, p) == 1 and 4 * digits <= len(even_cf_raw(q, p, 7 * digits + 1)) <= 7 * digits:
                break
        pool.append(Fraction(rng.choice((1, -1)) * q, p))
    rng.shuffle(pool)
    return pool


def convert_op(x: Fraction):
    t0 = perf_counter()
    y = ts.st_convert(x)
    first = perf_counter() - t0
    return [y, ts.change_of_basis(x)], first


def check_convert(x: Fraction, outputs: list) -> List[str]:
    y, basis = outputs
    problems = []
    if y.denominator != x.denominator:
        problems.append(f"denominator {x.denominator} became {y.denominator}")
    if (x.numerator * y.numerator + 1) % x.denominator:
        problems.append("q*q' is not -1 mod p")
    if ts.st_convert(y) != x:
        problems.append("st_convert is not an involution here")
    if basis.determinant() != 1:
        problems.append("change_of_basis has determinant != 1")
    if basis.inverse().first_column_slope() != y:
        problems.append("inverse change of basis disagrees with st_convert")
    return problems


# -------------------------------------------------------------------- 2-bridge

# Draws per quarter-octave of the twist count of both forms (sum |a_i| over
# the two, which is the slope count plus 2), scaled from 2 * 10**5
# acceptance draws of seed 424242 to a pool of 1015. From 512 twists up,
# where fewer than two draws would fall per bin, the pool keeps one or two
# per bin and one per half-octave from 1722 to 5793, so the slowest inputs
# reach about 5.8k slopes. The tail percentile leaves 10 inputs above it,
# so it falls on the longest of the five in [609, 724).
TWO_BRIDGE_QUOTAS = {
    4: 1, 8: 1, 10: 5, 12: 12, 13: 24, 14: 40, 15: 55, 16: 137, 17: 136, 18: 115, 19: 87, 20: 117,
    21: 54, 22: 49, 23: 39, 24: 33, 25: 21, 26: 16, 27: 13, 28: 11, 29: 8, 30: 7, 31: 5, 32: 4,
    33: 3, 34: 3, 35: 2, 36: 2, 37: 5, 38: 2, 39: 1, 40: 1, 41: 1, 42: 1, 43: 1, 45: 1, 47: 1, 49: 1,
}


def _units_of_both(item) -> int:
    return sum(form_units(b, a, 1 << 14) for b, a in both_forms(*item))


def build_two_bridge(seed: int, tiny: bool) -> list:
    quotas = {k: max(1, n // 40) for k, n in TWO_BRIDGE_QUOTAS.items() if k <= 32} if tiny else TWO_BRIDGE_QUOTAS
    return fill_quotas(two_bridge_draws(seed), _units_of_both, quotas, per_octave=4)


def slopes_op(item):
    """The in-process path of `slopes --both`, serializing each form's tuple."""
    t0 = perf_counter()
    outputs, first = [], None
    for form in ts.normalize_input(*item):
        t = ts.two_bridge_slopes(form)
        outputs.append((form, t, ts.serialize(t)))
        if first is None:
            first = perf_counter() - t0
    return outputs, first


def check_slopes(item, outputs: list) -> List[str]:
    problems = []
    if [(f.b, f.a) for f, _, _ in outputs] != list(both_forms(*item)):
        problems.append("normalize_input did not give the two residues")
    for form, t, text in outputs:
        twists = sum(abs(a) for a in form.expansion.a_entries)
        if len(t.slopes) != twists - 1:
            problems.append(f"{len(t.slopes)} slopes for {twists} twists")
        cls = ts.validate(t)
        kind = ts.TunnelKind.SEMISIMPLE if t.slopes else ts.TunnelKind.SIMPLE_KNOT
        if cls.kind is not kind or cls.target is not ts.Target.KNOT:
            problems.append(f"classified {cls.kind.value}/{cls.target.value}")
        if ts.parse(text) != t:
            problems.append("parse(serialize(t)) != t")
    return problems


def two_bridge_profile(pool) -> dict:
    forms = [Fraction(b, a) for item in pool for b, a in both_forms(*item)]
    slopes = sorted(_units_of_both(item) - 2 for item in pool)
    return {**profile(forms), "slopes_p50": slopes[len(slopes) // 2], "slopes_max": slopes[-1]}


# --------------------------------------------------------------------- cli-mix

HOPF, TREFOIL = "[ 1/2 ]", "[ 1/3 ], 3, 5/3 ; 0"

# README and acceptance-test lines, byte for byte.
GOLDEN = [
    (("convert", "55"), "-55\n"),
    (("convert", "(59/35)"), "-299/35\n"),
    (("convert", "(-299/35)"), "59/35\n"),
    (
        ("convert-range", "100102", "17255", "17265"),
        "17255/100102, -2843767/100102\n17257/100102, -6541753/100102\n"
        "17259/100102, 345051565/100102\n17261/100102, 5593835/100102\n"
        "17263/100102, 1775313/100102\n17265/100102, 158447/100102\n",
    ),
    (("slopes", "(33/19)"), "[ 1/3 ], 3, 5/3\n"),
    (("slopes", "(64793/31710)"), "[ 2/3 ], -3/2, 3, 3, 3, 3, 3, 7/3, 3, 3, 3, 3, 49/24\n"),
    (("slopes", "(3860981/2689048)"), "[ 13/27 ], 3, 3, 3, 5/3, 3, 7/3, 15/8, -5/3, -1, -3\n"),
    (("slopes", "(5272967/2616517)"), "[ 5/9 ], 11/5, 21/10, -23/11, -131/66\n"),
    (("classify", HOPF), "SimpleLink (Hopf link), linking number 1\n"),
    (("classify", TREFOIL), "Semisimple\n"),
    (("mirror", TREFOIL), "[ 2/3 ], -3, -5/3 ; 0\n"),
    (("link", HOPF), "1\n"),
    (
        ("classify", TREFOIL, "--json"),
        '{"m0": "1/3", "slopes": ["3", "5/3"], "binaries": [0], "class": "Semisimple", "target": "Knot"}\n',
    ),
]

# convert-range draws are kept when their expansions total within 5% of
# this many entries (the median for 2000 q over p in [10^4, 10^5]), so every
# seed launches the same conversion work; the long tail is convert-parabolic's.
RANGE_WIDTH, RANGE_ENTRIES = 2000, 20000


@dataclass(frozen=True)
class Command:
    argv: tuple
    expected: Optional[str]  # golden stdout; None: computed from the library


def _fraction_arg(x: Fraction) -> str:
    return f"({x.numerator}/{x.denominator})"


def _link_tuple(rng: random.Random) -> str:
    def slope(even: bool) -> Fraction:
        while True:
            num = 2 * rng.randint(1, 50) * rng.choice((1, -1)) if even else rng.randrange(-99, 100, 2)
            den = rng.randint(1, 40)
            if gcd(num, den) == 1:
                return Fraction(num, den)

    den = rng.randrange(3, 40, 2)
    m0 = ts.residue_of(Fraction(rng.choice([n for n in range(1, den) if gcd(n, den) == 1]), den))
    n = rng.randint(1, 5)
    slopes = [slope(False) for _ in range(n - 1)] + [slope(True)]
    return ts.serialize(ts.TunnelParams(m0, tuple(slopes), tuple(rng.randint(0, 1) for _ in range(n - 1))))


def _range_entries(p: int, lo: int, hi: int) -> int:
    return sum(
        len(even_cf_raw(q, p, RANGE_ENTRIES)) for q in range(lo | 1, hi + 1, 2) if gcd(q, p) == 1
    )


def build_cli(seed: int, tiny: bool) -> list:
    rng = random.Random(seed)
    seeded = 1 if tiny else 15
    commands = [Command(argv, out) for argv, out in (GOLDEN[:4] if tiny else GOLDEN)]
    body = (x for x in sample_odd_slopes(400, seed) if _expansion_length(x) < 512)
    commands += [Command(("convert", _fraction_arg(x)), None) for x in spread_draws(body, _expansion_length, seeded)]
    two_bridge = (d for d in two_bridge_draws(seed) if _units_of_both(d) < 128)
    pairs = spread_draws(two_bridge, _units_of_both, 3 * seeded)
    commands += [Command(("slopes", _fraction_arg(Fraction(*d)), "--both"), None) for d in pairs[0::3]]
    for verb, (b, a) in zip(("classify", "mirror") * seeded, pairs[1::3] + pairs[2::3]):
        knot = ts.serialize(ts.two_bridge_slopes(ts.make_form(b, a)))
        commands.append(Command((verb, knot, "--json"), None))
    commands += [Command(("link", _link_tuple(rng), "--json"), None) for _ in range(seeded)]
    commands.append(Command(("selfcheck",), None))
    width = 100 if tiny else RANGE_WIDTH
    for _ in range(1 if tiny else 3):
        while True:
            p = rng.randint(10**4, 10**5)
            lo = rng.randint(1, 10 * p)
            if tiny or abs(_range_entries(p, lo, lo + width) / RANGE_ENTRIES - 1) < 0.05:
                break
        commands.append(Command(("convert-range", str(p), str(lo), str(lo + width)), None))
    rng.shuffle(commands)
    return commands


def cli_profile(pool) -> dict:
    xs = []
    for c in pool:
        verb = c.argv[0]
        if verb == "convert":
            xs.append(ts.parse_rational(c.argv[1].strip("()")))
        elif verb == "convert-range":
            p, lo, hi = map(int, c.argv[1:])
            xs += [Fraction(q, p) for q in range(lo | 1, hi + 1, 2) if gcd(q, p) == 1]
        elif verb == "slopes":
            b, a = map(int, c.argv[1].strip("()").split("/"))
            xs += [Fraction(*form) for form in (both_forms(b, a) if "--both" in c.argv else [(b, a)])]
    return {**profile(xs), "commands": len(pool)}


def expected_stdout(command: Command) -> str:
    """What the command must print, computed from the library in this process."""
    if command.expected is not None:
        return command.expected
    verb, arg = command.argv[0], command.argv[1] if len(command.argv) > 1 else None
    if verb == "convert":
        return ts.render(ts.st_convert(ts.parse_rational(arg.strip("()")))) + "\n"
    if verb == "convert-range":
        p, lo, hi = map(int, command.argv[1:])
        return "".join(f"{ts.render(x)}, {ts.render(y)}\n" for x, y in ts.convert_range(p, lo, hi))
    if verb == "slopes":
        b, a = map(int, arg.strip("()").split("/"))
        lines = []
        for form in ts.normalize_input(b, a):
            t = ts.two_bridge_slopes(form)
            lines.append(", ".join([str(t.m0)] + [ts.render(m) for m in t.slopes]) + "\n")
        return "".join(lines)
    if verb in ("classify", "link"):
        return json.dumps(ts.to_export(ts.parse(arg))) + "\n"
    if verb == "mirror":
        return json.dumps(ts.to_export(ts.mirror(ts.parse(arg)))) + "\n"
    if verb == "selfcheck":
        return "".join(r.summary() + "\n" for r in ts.selfcheck()) + "selfcheck: ok\n"
    raise ValueError(f"no expectation for {command.argv}")


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


class _Stdout(io.StringIO):
    """Captured stdout that notes when its first line ends."""

    first_line_at = None

    def write(self, text: str) -> int:
        written = super().write(text)
        if self.first_line_at is None and "\n" in text:
            self.first_line_at = perf_counter()
        return written


def cli_op(command: Command):
    """The command through tunnelslopes.cli.main in this process, stdout and stderr captured."""
    out, err = _Stdout(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(command.argv))
    first = out.first_line_at - t0 if out.first_line_at is not None else None
    return [out.getvalue().encode(), code, err.getvalue().encode()], first


def check_cli(command: Command, outputs: list) -> List[str]:
    stdout, code, err = outputs
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {err.decode(errors='replace').strip()[:200]}")
    want = expected_stdout(command).encode()
    if stdout != want:
        problems.append(f"stdout differs from {'golden' if command.expected else 'library'} output")
    return problems


# -------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list]
    op: Callable  # item -> (outputs, seconds to the first line of output, or None)
    check: Callable[[object, list], List[str]]
    input_profile: Callable[[list], dict]
    entry: str = "tunnelslopes"  # what a fresh interpreter imports before the first operation
    first_line: Callable[[object], bool] = lambda item: True  # which operations time a first line


WORKLOADS = {
    w.name: w
    for w in (
        Workload("convert-uniform", build_uniform, convert_op, check_convert, profile),
        Workload("convert-parabolic", build_parabolic, convert_op, check_convert, profile),
        Workload("slopes-2bridge", build_two_bridge, slopes_op, check_slopes, two_bridge_profile),
        Workload(
            "cli-mix",
            build_cli,
            cli_op,
            check_cli,
            cli_profile,
            entry="tunnelslopes.cli",
            first_line=lambda command: command.argv[0] == "convert-range",
        ),
    )
}
