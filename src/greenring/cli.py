"""Command-line front end: compute, tabulate and verify.

Subcommands
-----------
psi     apply an Adams operation to a basis module or element literal
mul     multiply two element literals
lambda  exterior power of a basis module or element literal (degree < p)
sym     symmetric power of a basis module or element literal (degree < p)
table   emit the full Adams table for one exponent as CSV or JSON
verify  run a named identity sweep; exit 0 iff every clause passes

Exit codes: 0 success / all checks pass, 1 internal failure or a violated
identity, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from .adams import adams
from .core import (
    GreenElement,
    RingContext,
    basis_element,
    dim,
    format_element,
    multiply,
    parse_element,
    to_dict,
)
from .errors import GreenRingError
from .powers import exterior_power, symmetric_power
from .suites import SUITE_NAMES, NotApplicableError, run_suite


class UsageError(Exception):
    """Validation failure that should exit with code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenring",
        description="Exact Adams operations and tensor powers in the Green ring of a cyclic p-group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="prime p")
        sp.add_argument("--nu", type=int, required=True, help="exponent nu of the group order p^nu")

    sp = sub.add_parser("psi", help="apply an Adams operation")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="Adams exponent (coprime to p)")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=int, help="basis index: apply to V_s")
    group.add_argument("--element", type=str, help='element literal, e.g. "V5-V3+2V1"')
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("mul", help="multiply two elements")
    common(sp)
    sp.add_argument("--a", type=str, required=True, help="left factor literal")
    sp.add_argument("--b", type=str, required=True, help="right factor literal")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    for name, blurb in (("lambda", "exterior"), ("sym", "symmetric")):
        sp = sub.add_parser(name, help=f"{blurb} power (degree < p)")
        common(sp)
        sp.add_argument("--n", type=int, required=True, help=f"{blurb} degree")
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--s", type=int, help="basis index: apply to V_s")
        group.add_argument("--element", type=str, help="element literal")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("table", help="tabulate an Adams operation over the whole basis")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="Adams exponent (coprime to p)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", type=str, default=None, help="output path (default: stdout)")

    sp = sub.add_parser("verify", help="run an identity sweep")
    common(sp)
    sp.add_argument("--suite", choices=SUITE_NAMES, required=True)
    return parser


def _context(args: argparse.Namespace) -> RingContext:
    try:
        return RingContext(args.p, args.nu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _input_element(ctx: RingContext, args: argparse.Namespace) -> GreenElement:
    if getattr(args, "s", None) is not None:
        if not 1 <= args.s <= ctx.order:
            raise UsageError(f"--s must be in 1..{ctx.order}, got {args.s}")
        return basis_element(ctx, args.s)
    return parse_or_usage(ctx, args.element)


def _emit_element(value: GreenElement, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(to_dict(value), separators=(",", ":")))
    else:
        print(format_element(value))


def _check_adams_exponent(ctx: RingContext, n: int) -> None:
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if n % ctx.p == 0:
        raise UsageError("n divisible by p: out of scope for this operation")


def _cmd_psi(args: argparse.Namespace) -> int:
    ctx = _context(args)
    _check_adams_exponent(ctx, args.n)
    w = _input_element(ctx, args)
    _emit_element(adams(ctx, args.n, w), args.format)
    return 0


def _cmd_mul(args: argparse.Namespace) -> int:
    ctx = _context(args)
    a = parse_or_usage(ctx, args.a)
    b = parse_or_usage(ctx, args.b)
    _emit_element(multiply(a, b), args.format)
    return 0


def parse_or_usage(ctx: RingContext, text: str) -> GreenElement:
    try:
        return parse_element(ctx, text)
    except GreenRingError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_power(args: argparse.Namespace, kind: str) -> int:
    ctx = _context(args)
    if not 1 <= args.n <= ctx.p - 1:
        raise UsageError(f"--n must be in 1..{ctx.p - 1} (degree below p), got {args.n}")
    w = _input_element(ctx, args)
    func = exterior_power if kind == "lambda" else symmetric_power
    _emit_element(func(ctx, args.n, w), args.format)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    ctx = _context(args)
    _check_adams_exponent(ctx, args.n)
    values = [adams(ctx, args.n, basis_element(ctx, s)) for s in range(1, ctx.order + 1)]
    chunks = _table_chunks(ctx, args.n, values, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.writelines(chunks)
    return 0


def _table_chunks(ctx: RingContext, n: int, values: list[GreenElement], fmt: str) -> Iterator[str]:
    """The table's text a row at a time, so the whole of it is never built twice."""
    if fmt == "csv":
        yield "s,dim,expression\n"
        for s, v in enumerate(values, 1):
            yield f"{s},{dim(v)},{format_element(v)}\n"
        return
    # the compact json.dumps of {"p", "nu", "n", "rows": [...]}, row by row
    yield f'{{"p":{ctx.p},"nu":{ctx.nu},"n":{n},"rows":['
    for s, v in enumerate(values, 1):
        row = {"s": s, "dim": dim(v), "element": to_dict(v)}
        yield ("," if s > 1 else "") + json.dumps(row, separators=(",", ":"))
    yield "]}\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    ctx = _context(args)
    try:
        reports = run_suite(ctx, args.suite)
    except NotApplicableError as exc:
        raise UsageError(f"suite {args.suite!r} {exc}") from exc
    ok = True
    for report in reports:
        for line in report.lines:
            print(f"[{report.name}] {line}")
        ok = ok and report.ok
    print("RESULT: PASS" if ok else "RESULT: FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "psi":
            return _cmd_psi(args)
        if args.command == "mul":
            return _cmd_mul(args)
        if args.command in ("lambda", "sym"):
            return _cmd_power(args, args.command)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, GreenRingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
