"""Batch command line for the slope calculators.

Payload lines are stable and prompt-free: exact rational rendering, one
result per line, printed as soon as it is computed. Errors go to stderr and
exit nonzero; a reader that closes stdout early ends the command quietly with
status 141. Arguments may be wrapped in parentheses, so `convert "(59/35)"`
works as written. Arguments are read under Python's int/str digit limit, so an
over-long integer is a short error; results are printed with the limit lifted,
so an answer longer than its input still prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .convert import _range_pairs, st_convert
from .oracle import selfcheck
from .rationals import _excerpt, parse_rational, render
from .tunnels import (
    _export,
    _linking_number,
    _slope_text,
    Target,
    TunnelClass,
    TunnelKind,
    TunnelParams,
    mirror,
    parse,
    serialize,
    validate,
)
from .twobridge import make_form, normalize_input, two_bridge_slopes


def _strip_parens(text: str) -> str:
    t = text.strip()
    while len(t) >= 2 and t.startswith("(") and t.endswith(")"):
        t = t[1:-1].strip()
    return t


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"not an integer: {_excerpt(text)}") from exc


def _parse_two_bridge(text: str):
    if "/" in text:
        b_text, a_text = text.split("/", 1)
        return _integer(b_text), _integer(a_text)
    return _integer(text), 1


def _lift_digit_limit() -> None:
    """Lift the int/str digit limit once a command has read its arguments
    (``main`` restores it); interpreters before 3.10.7 have no limit."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def cmd_convert(args: argparse.Namespace) -> int:
    x = parse_rational(_strip_parens(args.value))
    _lift_digit_limit()
    print(render(st_convert(x)))
    return 0


def cmd_convert_range(args: argparse.Namespace) -> int:
    bounds = (_integer(args.p), _integer(args.q_lo), _integer(args.q_hi))
    _lift_digit_limit()
    for left, right in _range_pairs(*bounds):
        print(f"{render(left)}, {render(right)}")
    return 0


def cmd_slopes(args: argparse.Namespace) -> int:
    b, a = _parse_two_bridge(_strip_parens(args.value))
    _lift_digit_limit()
    forms = normalize_input(b, a) if args.both else [make_form(b, a)]
    for form in forms:
        print(_slope_text(two_bridge_slopes(form)))
    return 0


def _classification_line(t: TunnelParams, cls: TunnelClass) -> str:
    line = cls.kind.value
    if cls.kind is TunnelKind.SIMPLE_LINK and t.m0.value == Fraction(1, 2):
        line += " (Hopf link)"
    if cls.target is Target.LINK:
        line += f", linking number {_linking_number(t, cls)}"
    if t.slopes and t.slopes[-1] == 0:
        line += " (final slope 0: accepted syntactically)"
    return line


def cmd_classify(args: argparse.Namespace) -> int:
    t = parse(args.params)
    _lift_digit_limit()
    cls = validate(t)
    if args.json:
        print(json.dumps(_export(t, cls)))
        return 0
    print(_classification_line(t, cls))
    return 0


def cmd_mirror(args: argparse.Namespace) -> int:
    t = parse(args.params)
    _lift_digit_limit()
    # Negating the slopes keeps every parity, so the mirror has t's class.
    cls = validate(t)
    mirrored = mirror(t)
    if args.json:
        print(json.dumps(_export(mirrored, cls)))
        return 0
    print(serialize(mirrored))
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    t = parse(args.params)
    _lift_digit_limit()
    cls = validate(t)
    number = _linking_number(t, cls)
    if args.json:
        print(json.dumps(_export(t, cls)))
        return 0
    print(number)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    reports = selfcheck()
    for report in reports:
        print(report.summary())
    if all(r.ok for r in reports):
        print("selfcheck: ok")
        return 0
    print("selfcheck: FAIL")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; every later call
    returns the same one, which callers must not change. Parsing keeps no
    state in it, so ``main`` may run many times in one process without
    building it again."""
    parser = argparse.ArgumentParser(
        prog="tunnelslopes",
        description="Exact slope invariants of tunnel-number-one knot and link tunnels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a slope invariant of a knot tunnel")
    p.add_argument("value", help="rational with odd numerator, e.g. 55 or (59/35)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("convert-range", help="convert every odd q/p in a range of q")
    p.add_argument("p")
    p.add_argument("q_lo")
    p.add_argument("q_hi")
    p.set_defaults(func=cmd_convert_range)

    p = sub.add_parser("slopes", help="cabling slopes of a 2-bridge knot tunnel")
    p.add_argument("value", help="invariant b/a with b odd and |b/a| > 1, e.g. (33/19)")
    p.add_argument(
        "--both",
        action="store_true",
        help="normalize a mod b and print the sequence for both admissible residues",
    )
    p.set_defaults(func=cmd_slopes)

    for name, func, help_text in (
        ("classify", cmd_classify, "validate and classify a cabling-parameter tuple"),
        ("mirror", cmd_mirror, "negate every slope of a tuple"),
        ("link", cmd_link, "linking number of a link tunnel tuple"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("params", help="tuple text, e.g. '[ 1/3 ], 3, 5/3 ; 0'")
        p.add_argument("--json", action="store_true", help="emit the JSON export instead")
        p.set_defaults(func=func)

    p = sub.add_parser("selfcheck", help="run the built-in certification oracles")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device so the flush
        # at exit cannot fail again, and exit as a shell reports a process
        # that SIGPIPE ended (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # An expansion in a few runs can stand for more entries than memory holds.
        print("error: out of memory: the result is too large to write out", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
