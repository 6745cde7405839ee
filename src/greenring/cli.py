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
identity, 2 usage or validation error.  The CLI does not re-check the
arguments it hands to the library: a bad --p or --nu, an out-of-range --s,
exponent or degree, or a malformed literal is reported by the library check
that owns it, as "error: <its message>"; main is the one place that maps a
GreenRingError to exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterator

from .adams import adams, adams_table
from .core import (
    GreenElement,
    RingContext,
    _expression,
    _term_text,
    basis_element,
    format_element,
    multiply,
    parse_element,
    to_dict,
)
from .errors import GreenRingError
from .powers import exterior_power, symmetric_power

# the names `verify --suite` accepts, equal to suites.SUITE_NAMES; the CLI
# keeps its own copy so that only `verify` imports the suites
SUITE_NAMES = (
    "dimension",
    "homomorphism",
    "periodicity",
    "symmetry",
    "reciprocity",
    "shape",
    "heller",
    "gow-laffey",
    "oracle",
    "all",
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on the first call and reused after it.

    Parsing keeps no state in the parser, so one parser serves every call
    of main in a process.
    """
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


def _input_element(ctx: RingContext, args: argparse.Namespace) -> GreenElement:
    if getattr(args, "s", None) is not None:
        return basis_element(ctx, ctx.check_index(args.s, "--s"))
    return parse_element(ctx, args.element)


def _emit_element(value: GreenElement, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(to_dict(value), separators=(",", ":")))
    else:
        print(format_element(value))


def _cmd_psi(args: argparse.Namespace) -> int:
    ctx = RingContext(args.p, args.nu)
    w = _input_element(ctx, args)
    _emit_element(adams(ctx, args.n, w), args.format)
    return 0


def _cmd_mul(args: argparse.Namespace) -> int:
    ctx = RingContext(args.p, args.nu)
    a = parse_element(ctx, args.a)
    b = parse_element(ctx, args.b)
    _emit_element(multiply(a, b), args.format)
    return 0


def _cmd_power(args: argparse.Namespace, kind: str) -> int:
    ctx = RingContext(args.p, args.nu)
    w = _input_element(ctx, args)
    func = exterior_power if kind == "lambda" else symmetric_power
    _emit_element(func(ctx, args.n, w), args.format)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    ctx = RingContext(args.p, args.nu)
    chunks = _table_chunks(ctx, args.n, adams_table(ctx, args.n), args.format)
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


class _TermText(dict):
    """The text of each distinct term, made on its first lookup."""

    def __init__(self, make: Callable[[tuple[int, int]], str]):
        super().__init__()
        self.make = make

    def __missing__(self, term: tuple[int, int]) -> str:
        text = self[term] = self.make(term)
        return text


def _table_chunks(ctx: RingContext, n: int, values: list[GreenElement], fmt: str) -> Iterator[str]:
    """The table's text a row at a time, so the whole of it is never built twice.

    Rows are the CSV lines of format_element or the compact json.dumps of
    {"p", "nu", "n", "rows": [...]}; the text of each distinct term is made
    once per table, keyed by its (shared) term tuple.  The dim field of row s
    is s itself, since dim psi^n(x) = dim x: `verify --suite dimension`
    checks that identity for every fold class and every s on the same table
    kernel that `table` prints, tests/test_cli.py compares whole tables with
    dim(v) taken from the per-value route, and the benchmark's checks derive
    each row's dimension again from its expression.
    """
    if fmt == "csv":
        text = _TermText(_term_text)
        yield "s,dim,expression\n"
        for s, v in enumerate(values, 1):
            yield f"{s},{s},{_expression(map(text.__getitem__, reversed(v.terms)))}\n"
        return
    text = _TermText(lambda term: f'"{term[0]}":{term[1]}')
    head = f'"element":{{"p":{ctx.p},"nu":{ctx.nu},"coeffs":{{'
    yield f'{{"p":{ctx.p},"nu":{ctx.nu},"n":{n},"rows":['
    for s, v in enumerate(values, 1):
        coeffs = ",".join(map(text.__getitem__, v.terms))
        yield f'{"," if s > 1 else ""}{{"s":{s},"dim":{s},{head}{coeffs}}}}}}}'
    yield "]}\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite

    ok = True
    for report in run_suite(RingContext(args.p, args.nu), args.suite):
        for line in report.lines:
            print(f"[{report.name}] {line}")
        ok = ok and report.ok
    print("RESULT: PASS" if ok else "RESULT: FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Run one CLI invocation and return its exit code (0, 1 or 2).

    The argparse tree is built once per process, on the first call, and
    every later call reuses it; output goes to the current sys.stdout and
    sys.stderr.
    """
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
        return _cmd_verify(args)
    except GreenRingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Entry point of the console script and of `python -m greenring`.

    A reader that closes the pipe early (`greenring table ... | head`) ends
    the process through the default SIGPIPE action, silently, as it ends
    cat, rather than as an internal error.  main leaves signals alone, so
    in-process callers keep their own handlers (and do not import signal).
    """
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
