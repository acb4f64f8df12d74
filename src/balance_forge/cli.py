"""Command line surface: sequence generation, Pell solving, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Output goes to stdout, one value / tuple / report per line; ``--format
jsonl`` (or the ``BALANCE_FORGE_FORMAT`` environment variable) switches to
one self-contained JSON object per line.

``main`` reads a well-formed argv straight from ``_GRAMMAR``. Anything else
(``--help``, abbreviations, ``--opt=value``, every usage error) goes to the
argparse parser built from the same table; argparse is imported only then.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .pellsolver import QuadraticForm, solutions
# term stays a module global: perfbench's tracer wraps it here
from .sequences import KIND_BY_NAME, term, terms  # noqa: F401
from .verifier import GROUPS, _jsonl, verify, verify_all, verify_group

_FORMATS = ("plain", "jsonl")


def _default_format() -> str:
    env = os.environ.get("BALANCE_FORGE_FORMAT", "plain")
    return env if env in _FORMATS else "plain"


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _write(lines) -> None:
    """The one writer to stdout.  A closed stdout ends the output quietly: fd 1
    then points at os.devnull, so the interpreter's last flush cannot fail."""
    try:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_gen(args) -> int:
    kind = KIND_BY_NAME.get(args.kind)
    if kind is None:
        return _fail("unknown sequence")
    if args.start > args.stop:
        return _fail("empty range")
    try:
        values = terms(kind, args.start)
    except ValueError as exc:
        return _fail(str(exc))
    pairs = zip(range(args.start, args.stop + 1), values)
    if args.format == "jsonl":
        _write(_jsonl({"command": "gen", "kind": args.kind, "n": n, "value": v}) for n, v in pairs)
    else:
        _write(v for _, v in pairs)
    return 0


def _cmd_solve(args) -> int:
    try:
        form = QuadraticForm(args.a, args.b, args.c)
    except ValueError:
        return _fail("degenerate form")
    try:
        sols = solutions(
            form, args.m,
            count=args.count, xbound=args.xbound,
            positive=not args.all,
        )
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "jsonl":
        _write(_jsonl({
            "command": "solve", "x": sol.x, "y": sol.y,
            "rep": sol.rep, "exponent": sol.exponent, "sign": sol.sign,
        }) for sol in sols)
    else:
        _write(f"({sol.x},{sol.y})" for sol in sols)
    return 0


def _cmd_verify(args) -> int:
    try:
        if args.id == "all":
            reports = verify_all(args.upto, args.pell_count)
        elif args.id in GROUPS:
            reports = verify_group(args.id, args.upto, args.pell_count)
        else:
            reports = [verify(args.id, args.upto)]
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "jsonl":
        _write(_jsonl(report.to_dict()) for report in reports)
    else:
        lines = []
        for report in reports:
            line = f"{report.id} [{report.lo}..{report.hi}] {report.status}"
            if report.counterexample is not None:
                line += f" counterexample={_jsonl(report.counterexample)}"
            if report.note is not None:
                line += f" ({report.note})"
            lines.append(line)
        _write(lines)
    return 0 if all(r.passed for r in reports) else 1


_FORMAT = ("--format", {"choices": _FORMATS, "default": None})

# command -> (help, handler, arguments as (name, add_argument keywords) with the
# positionals first, options of the required one-of group)
_GRAMMAR = {
    "gen": ("emit sequence terms for an index range", _cmd_gen, (
        ("kind", {"help": f"sequence name ({' '.join(KIND_BY_NAME)})"}),
        ("start", {"type": int}),
        ("stop", {"type": int}),
        _FORMAT,
    ), ()),
    "solve": ("solve a*x^2 + b*x*y + c*y^2 = m", _cmd_solve, (
        *((name, {"type": int}) for name in "abcm"),
        ("--count", {"type": int, "help": "emit this many solutions"}),
        ("--xbound", {"type": int, "help": "emit all solutions with |x| <= bound"}),
        ("--all", {"action": "store_true", "default": False,
                   "help": "emit the full signed set instead of x>0, y>0"}),
        _FORMAT,
    ), ("--count", "--xbound")),
    "verify": ("check cataloged identities exactly", _cmd_verify, (
        ("id", {"help": "identity or group id, or 'all'"}),
        ("--upto", {"type": int, "required": True, "metavar": "N"}),
        ("--pell-count", {"type": int, "default": 10, "metavar": "K"}),
        _FORMAT,
    ), ()),
}


def build_parser():
    """The ``argparse.ArgumentParser`` of ``_GRAMMAR``, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="balance-forge",
        description="Balancing-type sequences, Pell-equation orbits, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, fn, arguments, one_of) in _GRAMMAR.items():
        cmd = sub.add_parser(command, help=about)
        group = cmd.add_mutually_exclusive_group(required=True) if one_of else None
        for name, keywords in arguments:
            (group if name in one_of else cmd).add_argument(name, **keywords)
        cmd.set_defaults(fn=fn)
    return parser


_parser = functools.cache(build_parser)  # built on first use; parse_args keeps no state


def _value(token: str, keywords: dict):
    # argparse reads "-<digits>" as a value, not an option; the rest of the
    # dash-led tokens it reads (non-ASCII digits, "-5\n", "-1.5") are left to it
    if token[:1] == "-" and not (token[1:].isdigit() and token.isascii()):
        raise ValueError(token)
    value = keywords.get("type", str)(token)
    if value not in keywords.get("choices", (value,)):
        raise ValueError(token)
    return value


def _match(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a well-formed argv, else None: the
    command, each positional, then each option at most once, every value valid."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, fn, arguments, one_of = _GRAMMAR[argv[0]]
    values, options, tokens = {"command": argv[0], "fn": fn}, {}, iter(argv[1:])
    try:
        for name, keywords in arguments:
            if name[0] == "-":
                options[name] = keywords
                values[name[2:].replace("-", "_")] = keywords.get("default")
            else:
                values[name] = _value(next(tokens), keywords)
        for flag in tokens:
            keywords = options.pop(flag)  # KeyError: unknown, repeated or a stray value
            values[flag[2:].replace("-", "_")] = (
                True if "action" in keywords else _value(next(tokens), keywords))
    except (StopIteration, KeyError, ValueError):
        return None
    missing = any(keywords.get("required") for keywords in options.values())
    if missing or one_of and sum(flag not in options for flag in one_of) != 1:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv) or _parser().parse_args(argv)
    args.format = args.format or _default_format()
    # print values of any size in full; CPython before 3.10.7 has no limit
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.fn(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
