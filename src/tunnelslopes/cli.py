"""Batch command line for the slope calculators.

Payload lines are stable and prompt-free: exact rational rendering, one
result per line, printed as soon as it is computed. Errors go to stderr and
exit nonzero; a reader that closes stdout early ends the command quietly with
status 141. Arguments may be wrapped in parentheses, so `convert "(59/35)"`
works as written; a negative value may also be bare, as in `convert -59/35`.
Each subparser sets a ``read``, which ``main`` runs under Python's int/str
digit limit, so an over-long integer is a short error. ``main`` then lifts
the limit once for ``func``, so a long answer still prints, and restores it.
Each ``read`` and ``func`` imports the package modules its command runs (and
``json`` only under --json), so a fresh process loads no others.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .rationals import _excerpt, parse_rational, render


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


def cmd_convert(x: Fraction, args: argparse.Namespace) -> int:
    from .convert import st_convert

    print(render(st_convert(x)))
    return 0


def cmd_convert_range(bounds: tuple[int, int, int], args: argparse.Namespace) -> int:
    from .convert import _range_pairs

    for left, right in _range_pairs(*bounds):
        print(f"{render(left)}, {render(right)}")
    return 0


def cmd_slopes(invariant: tuple[int, int], args: argparse.Namespace) -> int:
    from .tunnels import _slope_text
    from .twobridge import make_form, normalize_input, two_bridge_slopes

    forms = normalize_input(*invariant) if args.both else [make_form(*invariant)]
    for form in forms:
        print(_slope_text(two_bridge_slopes(form)))
    return 0


def _read_tuple(args: argparse.Namespace):
    from .tunnels import parse

    return parse(args.params)


def _print_json(payload: dict) -> int:
    import json

    print(json.dumps(payload))
    return 0


def cmd_classify(t, args: argparse.Namespace) -> int:
    from .tunnels import Target, TunnelKind, _export, _linking_number, validate

    cls = validate(t)
    if args.json:
        return _print_json(_export(t, cls))
    line = cls.kind.value
    if cls.kind is TunnelKind.SIMPLE_LINK and t.m0.value == Fraction(1, 2):
        line += " (Hopf link)"
    if cls.target is Target.LINK:
        line += f", linking number {_linking_number(t, cls)}"
    if t.slope_runs and t.slope_runs[-1][0] == 0:
        line += " (final slope 0: accepted syntactically)"
    print(line)
    return 0


def cmd_mirror(t, args: argparse.Namespace) -> int:
    from .tunnels import _export, mirror, serialize, validate

    # Negating the slopes keeps every parity, so the mirror has t's class.
    cls = validate(t)
    mirrored = mirror(t)
    if args.json:
        return _print_json(_export(mirrored, cls))
    print(serialize(mirrored))
    return 0


def cmd_link(t, args: argparse.Namespace) -> int:
    from .tunnels import _export, _linking_number, validate

    cls = validate(t)
    number = _linking_number(t, cls)
    if args.json:
        return _print_json(_export(t, cls))
    print(number)
    return 0


def cmd_selfcheck(_, args: argparse.Namespace) -> int:
    from .oracle import selfcheck

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
    p.set_defaults(read=lambda args: parse_rational(_strip_parens(args.value)), func=cmd_convert)

    p = sub.add_parser("convert-range", help="convert every odd q/p in a range of q")
    p.add_argument("p")
    p.add_argument("q_lo")
    p.add_argument("q_hi")
    p.set_defaults(
        read=lambda args: (_integer(args.p), _integer(args.q_lo), _integer(args.q_hi)),
        func=cmd_convert_range,
    )

    p = sub.add_parser("slopes", help="cabling slopes of a 2-bridge knot tunnel")
    p.add_argument("value", help="invariant b/a with b odd and |b/a| > 1, e.g. (33/19)")
    p.add_argument(
        "--both",
        action="store_true",
        help="normalize a mod b and print the sequence for both admissible residues",
    )
    p.set_defaults(read=lambda args: _parse_two_bridge(_strip_parens(args.value)), func=cmd_slopes)

    for name, func, help_text in (
        ("classify", cmd_classify, "validate and classify a cabling-parameter tuple"),
        ("mirror", cmd_mirror, "negate every slope of a tuple"),
        ("link", cmd_link, "linking number of a link tunnel tuple"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("params", help="tuple text, e.g. '[ 1/3 ], 3, 5/3 ; 0'")
        p.add_argument("--json", action="store_true", help="emit the JSON export instead")
        p.set_defaults(read=_read_tuple, func=func)

    p = sub.add_parser("selfcheck", help="run the built-in certification oracles")
    p.set_defaults(read=lambda args: None, func=cmd_selfcheck)
    for p in sub.choices.values():  # else argparse takes -59/35 for an option
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _failed(args: argparse.Namespace, exc: Exception, message: str) -> int:
    """Report a failed command on stderr and return its exit status: one
    'error:' line, or under --json one JSON object with the exception's
    class, its rule and position (null where it has none) and the message."""
    if getattr(args, "json", False):
        import json

        rule, position = getattr(exc, "rule", None), getattr(exc, "position", None)
        line = json.dumps({"error": type(exc).__name__, "rule": rule, "position": position, "message": message})
    else:
        line = f"error: {message}"
    print(line, file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    digit_limit = sys.get_int_max_str_digits()
    try:
        value = args.read(args)
        sys.set_int_max_str_digits(0)
        status = args.func(value, args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device so the flush
        # at exit cannot fail again, and exit as a shell reports a process
        # that SIGPIPE ended (128 + 13).
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, ArithmeticError) as exc:
        return _failed(args, exc, str(exc))
    except MemoryError as exc:
        # An expansion in a few runs can stand for more entries than memory holds.
        return _failed(args, exc, "out of memory: the result is too large to write out")
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
