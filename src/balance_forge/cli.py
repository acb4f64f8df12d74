"""Command line surface: sequence generation, Pell solving, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Output goes to stdout, one value / tuple / report per line; ``--format
jsonl`` (or the ``BALANCE_FORGE_FORMAT`` environment variable) switches to
one self-contained JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .pellsolver import QuadraticForm, solutions
# term stays a module global: perfbench's tracer wraps it here
from .sequences import KIND_BY_NAME, term, terms  # noqa: F401
from .verifier import (
    GROUPS,
    verify,
    verify_all,
    verify_group,
    known_ids,
)

_FORMATS = ("plain", "jsonl")


def _default_format() -> str:
    env = os.environ.get("BALANCE_FORGE_FORMAT", "plain")
    return env if env in _FORMATS else "plain"


def _jsonl(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


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
    for n, value in zip(range(args.start, args.stop + 1), values):
        if args.format == "jsonl":
            print(_jsonl({"command": "gen", "kind": args.kind, "n": n, "value": value}))
        else:
            print(value)
    return 0


def _cmd_solve(args) -> int:
    try:
        form = QuadraticForm(args.a, args.b, args.c)
    except ValueError:
        return _fail("degenerate form")
    if args.m == 0:
        return _fail("degenerate right-hand side")
    try:
        sols = solutions(
            form, args.m,
            count=args.count, xbound=args.xbound,
            positive=not args.all,
        )
    except ValueError as exc:
        return _fail(str(exc))
    for sol in sols:
        if args.format == "jsonl":
            print(_jsonl({
                "command": "solve", "x": sol.x, "y": sol.y,
                "rep": sol.rep, "exponent": sol.exponent, "sign": sol.sign,
            }))
        else:
            print(f"({sol.x},{sol.y})")
    return 0


def _cmd_verify(args) -> int:
    if args.id not in known_ids():
        return _fail("no such identity")
    try:
        if args.id == "all":
            reports = verify_all(args.upto, args.pell_count)
        elif args.id in GROUPS:
            reports = verify_group(args.id, args.upto, args.pell_count)
        else:
            reports = [verify(args.id, args.upto)]
    except ValueError as exc:
        return _fail(str(exc))
    for report in reports:
        if args.format == "jsonl":
            print(_jsonl(report.to_dict()))
        else:
            line = f"{report.id} [{report.lo}..{report.hi}] {report.status}"
            if report.counterexample is not None:
                line += f" counterexample={_jsonl(report.counterexample)}"
            if report.note is not None:
                line += f" ({report.note})"
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balance-forge",
        description="Balancing-type sequences, Pell-equation orbits, identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit sequence terms for an index range")
    gen.add_argument("kind", help=f"sequence name ({' '.join(KIND_BY_NAME)})")
    gen.add_argument("start", type=int)
    gen.add_argument("stop", type=int)
    gen.add_argument("--format", choices=_FORMATS, default=_default_format())
    gen.set_defaults(fn=_cmd_gen)

    solve = sub.add_parser("solve", help="solve a*x^2 + b*x*y + c*y^2 = m")
    solve.add_argument("a", type=int)
    solve.add_argument("b", type=int)
    solve.add_argument("c", type=int)
    solve.add_argument("m", type=int)
    limit = solve.add_mutually_exclusive_group(required=True)
    limit.add_argument("--count", type=int, help="emit this many solutions")
    limit.add_argument("--xbound", type=int, help="emit all solutions with |x| <= bound")
    solve.add_argument("--all", action="store_true",
                       help="emit the full signed set instead of x>0, y>0")
    solve.add_argument("--format", choices=_FORMATS, default=_default_format())
    solve.set_defaults(fn=_cmd_solve)

    ver = sub.add_parser("verify", help="check cataloged identities exactly")
    ver.add_argument("id", help="identity or group id, or 'all'")
    ver.add_argument("--upto", type=int, required=True, metavar="N")
    ver.add_argument("--pell-count", type=int, default=10, metavar="K")
    ver.add_argument("--format", choices=_FORMATS, default=_default_format())
    ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
