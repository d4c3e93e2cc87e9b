"""Command-line front end.

Subcommands: cover | thickness | intersect | dimension | membership.
Numeric inputs are exact rationals ("p/q", integers, or plain decimals,
all parsed exactly).  Scan centers are digit codes ("11:zero") or the
literal "1/m", never bare numbers: the parameters they name are typically
irrational and only a code pins one down certifiably.  Exit codes:
0 success, 2 invalid configuration, 3 precision exhaustion.
"""

from __future__ import annotations

import argparse
import re
import sys

from ._rat import Q, dec_to_rational, to_rational
from .errors import CantorToolkitError, DomainError, NoRootError, PrecisionExhaustedError

# Each handler imports the modules it runs, so a command loads no analysis it
# does not use, and returns the command's payload; main renders it.  Handlers
# call through module attributes (lambda_set.cover) and main looks the
# renderer up on output when it runs, so a function replaced on its module is
# the one the command runs.


# Python's default limit on int <-> str conversion
# (sys.int_info.default_max_str_digits); a rendered decimal carries its
# fractional digits as one integer.
MAX_DIGITS = 4300


class ConfigError(Exception):
    pass


# Optional sign, ASCII digits, optional "/" and ASCII digits.  int() alone also
# takes underscores and non-ASCII digits, which the decimal path refuses.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(text: str, name: str) -> Q:
    try:
        if "." in text:
            return dec_to_rational(text)
        if not _RATIONAL.fullmatch(text.strip()):
            raise ValueError(text)
        return to_rational(text)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ConfigError("%s: cannot parse %r as an exact rational" % (name, text))


def _parse_point(text: str, name: str) -> Q:
    value = _parse_rational(text, name)
    if value == 0:
        raise ConfigError(
            "%s must lie in (0,1); at 0 the parameter set is the whole half-open hull (0, 1/m]"
            % name
        )
    if value == 1:
        raise ConfigError(
            "%s must lie in (0,1); at 1 the parameter set is the single point {1/m}" % name
        )
    if not 0 < value < 1:
        raise ConfigError("%s must lie in (0,1)" % name)
    return value


def _parse_tol(text: str) -> Q:
    text = text.strip()
    if text.startswith("2^-"):
        exponent = text[3:]
        if not (exponent.isascii() and exponent.isdigit()):
            raise ConfigError("tol: cannot parse %r as 2^-N with an integer N >= 0" % text)
        return Q(1, 1 << int(exponent))
    value = _parse_rational(text, "tol")
    if value <= 0:
        raise ConfigError("tol must be positive")
    return value


def _resolve_center(text: str, x: Q, m: int, tol):
    from . import exact_arith, lambda_set

    if text.strip() == "1/m":
        cap = Q(1, m)
        code = exact_arith.Code(m, (), exact_arith.Tail.TRUNCATED)
        return exact_arith.Bracket(cap, cap, code, x)
    try:
        code = exact_arith.Code.parse(text, m)
    except DomainError:
        raise ConfigError("cannot parse %r as a digit code for m=%d" % (text, m))
    if not lambda_set.is_admissible(x, m, code.prefix):
        raise ConfigError("code %r is not admissible for x=%s" % (text, x))
    try:
        return exact_arith.solve_lambda(x, code, tol)
    except NoRootError:
        raise ConfigError("code %r names no parameter in (0, 1/m] for x=%s" % (text, x))


def _write(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (out_path, exc.strerror))
    else:
        sys.stdout.write(text)


def _add_common(sub, *, needs_y=False, needs_tol=True, needs_digits=True):
    sub.add_argument("--m", type=int, required=True, help="alphabet size, >= 2")
    sub.add_argument("--x", required=True, help="point as exact rational p/q in (0,1)")
    if needs_y:
        sub.add_argument("--y", required=True, help="second point as exact rational p/q")
    if needs_tol:
        sub.add_argument("--tol", default="2^-64", help="bracket width target (2^-N, p/q or decimal)")
    if needs_digits:
        sub.add_argument(
            "--digits",
            type=int,
            default=6,
            help="decimal places in rendered output, 0..%d" % MAX_DIGITS,
        )
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-toolkit",
        description="Certified construction and analysis of Cantor-set parameter sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="basic-interval cover of the parameter set")
    _add_common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "svg", "text"), default="json")

    p = sub.add_parser("thickness", help="thickness reports of the thick subsystems")
    _add_common(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("intersect", help="interleaved subsystem pairs of two points")
    _add_common(p, needs_y=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("dimension", help="local box-dimension scan")
    _add_common(p)
    p.add_argument("--at", required=True, help='scan center: "1/m" or a code like "11:zero"')
    p.add_argument("--deltas", required=True, help="comma-separated window radii (rationals)")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--grid-depth", type=int, default=14, dest="grid_depth")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    # membership decides in exact arithmetic, solves no root and renders no
    # decimal, so it takes neither --tol nor --digits
    p = sub.add_parser("membership", help="certified membership test for one parameter")
    _add_common(p, needs_tol=False, needs_digits=False)
    p.add_argument("--lambda", required=True, dest="lam", help="parameter as exact rational p/q")
    # None stands for coding.DEFAULT_MAX_STEPS, resolved once coding is loaded
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _cmd_cover(args) -> dict | list[dict]:
    from . import lambda_set, output

    x = _parse_point(args.x, "x")
    tol = _parse_tol(args.tol)
    # the one handler that reads --format: the diagram draws every level
    if args.format == "svg":
        levels = lambda_set.cover_sequence(x, args.m, args.depth, tol)
        return [output.cover_payload(level, args.digits) for level in levels]
    return output.cover_payload(lambda_set.cover(x, args.m, args.depth, tol), args.digits)


def _cmd_thickness(args) -> dict:
    from . import output, thickness

    x = _parse_point(args.x, "x")
    tol = _parse_tol(args.tol)
    if args.depth < 1:
        raise ConfigError("depth must be >= 1")
    if args.kmax < 0:
        raise ConfigError("kmax must be >= 0")
    systems = thickness.ek_hulls(x, args.m, args.kmax, tol)
    reports = [thickness.tau_report(s, args.depth) for s in systems]
    return output.thickness_payload(x, args.m, systems, reports, args.digits)


def _cmd_intersect(args) -> dict:
    from . import output, thickness

    x = _parse_point(args.x, "x")
    y = _parse_point(args.y, "y")
    tol = _parse_tol(args.tol)
    if args.kmax < 0:
        raise ConfigError("kmax must be >= 0")
    pairs = thickness.find_interleaved_pairs(x, y, args.m, args.kmax, args.depth, tol)
    reports = [thickness.intersection_report(p) for p in pairs]
    return output.interleave_payload(x, y, args.m, args.kmax, pairs, reports, args.digits)


def _cmd_dimension(args) -> dict:
    from . import dimension, output

    x = _parse_point(args.x, "x")
    tol = _parse_tol(args.tol)
    center = _resolve_center(args.at, x, args.m, tol)
    deltas = [_parse_rational(part, "deltas") for part in args.deltas.split(",") if part.strip()]
    if not deltas:
        raise ConfigError("need at least one delta")
    scan = dimension.local_dimension_scan(
        x, args.m, center, deltas, args.depth, args.grid_depth, tol
    )
    return output.dimension_payload(x, args.m, scan, args.digits)


def _cmd_membership(args) -> dict:
    from . import coding, output

    x = _parse_point(args.x, "x")
    lam = _parse_rational(args.lam, "lambda")
    if not (0 < lam and lam * args.m <= 1):
        raise ConfigError("lambda must lie in (0, 1/m]")
    max_steps = coding.DEFAULT_MAX_STEPS if args.max_steps is None else args.max_steps
    result = coding.membership(x, lam, args.m, max_steps=max_steps)
    return output.membership_payload(x, lam, args.m, result)


_HANDLERS = {
    "cover": _cmd_cover,
    "thickness": _cmd_thickness,
    "intersect": _cmd_intersect,
    "dimension": _cmd_dimension,
    "membership": _cmd_membership,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.m < 2:
        print("error: m must be >= 2", file=sys.stderr)
        return 2
    if "digits" in args:
        if args.digits < 0:
            print("error: digits must be >= 0", file=sys.stderr)
            return 2
        if args.digits > MAX_DIGITS:
            print("error: digits must be <= %d" % MAX_DIGITS, file=sys.stderr)
            return 2
    try:
        payload = _HANDLERS[args.command](args)
        from . import output

        # output.to_json or output.<report>_<format>, looked up only now
        report = "interleave" if args.command == "intersect" else args.command
        render = "to_json" if args.format == "json" else "%s_%s" % (report, args.format)
        _write(getattr(output, render)(payload), args.out)
        return 0
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionExhaustedError as exc:
        print("precision exhausted: %s" % exc, file=sys.stderr)
        return 3
    except CantorToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
