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
from bisect import bisect_left
from typing import Iterator, Sequence

import numpy as np

from .adams import _folded, _Keyed, _table_rows, adams
from .core import (
    GreenElement,
    RingContext,
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
    of main in a process.  Its `commands` attribute maps each command word
    to that command's subparser.
    """
    parser = argparse.ArgumentParser(
        prog="greenring",
        description="Exact Adams operations and tensor powers in the Green ring of a cyclic p-group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
    chunks = _table_chunks(ctx, args.n, _table_rows(ctx, _folded(ctx, args.n)), args.format)
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


# each format's _pieces, for t = 0..(the largest q asked for so far)
_PIECES: dict[str, np.ndarray] = {}

# the text takes runs of rows of about this many terms at a time, so that
# what it builds on the way stays small next to the rows
_CHUNK_TERMS = 1 << 12


def _pieces(fmt: str, q: int) -> np.ndarray:
    """The text of each term c V_t with c = +-1 in a table row, by its key 2 t + (c < 0), t = 0..q at least.

    A term reads " + Vt" or " - Vt" in CSV and ',"t":1' or ',"t":-1' in
    JSON, as it does after another term of its row; _table_chunks fixes
    each row's lead.  One array per format serves every q, extended when a
    larger q comes.
    """
    pieces = _PIECES.get(fmt)
    if pieces is None or len(pieces) <= 2 * q + 1:
        forms = (" + V{}", " - V{}") if fmt == "csv" else (',"{}":1', ',"{}":-1')
        pieces = _PIECES[fmt] = np.array([form.format(t) for t in range(q + 1) for form in forms], object)
    return pieces


def _chunks(starts: Sequence[int], lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The rows lo..hi-1 as runs a..b-1 in turn, each the fewest rows holding _CHUNK_TERMS terms, or the rest."""
    while lo < hi:
        b = bisect_left(starts, starts[lo - 1] + _CHUNK_TERMS, lo, hi) + 1
        yield lo, min(b, hi)
        lo = b


def _table_chunks(ctx: RingContext, n: int, table: _Keyed, fmt: str) -> Iterator[str]:
    """The table's text, made from the memo's form of its rows a chunk of about _CHUNK_TERMS terms at a time.

    Rows are the CSV lines of format_element (each row's terms read in
    descending order) or the compact json.dumps of {"p", "nu", "n",
    "rows": [...]} (ascending); a row without terms prints 0 or {}.  A
    chunk's term texts are gathered from _pieces by their keys at once, in
    reverse for CSV, and each row is a slice of them with its lead fixed as
    format_element fixes its own: " + " is dropped and " - " becomes "-" in
    CSV, the comma is dropped in JSON.  The keys come from adams._keyed, so
    every multiplicity is +-1.  The dim field of row s is s itself, since
    dim psi^n(x) = dim x: `verify --suite dimension` checks that identity
    for every fold class and every s on the same table kernel that `table`
    prints, tests/test_cli.py compares whole tables with dim(v) taken from
    the per-value route, and the benchmark's checks derive each row's
    dimension again from its expression.
    """
    csv = fmt == "csv"
    pieces = _pieces(fmt, ctx.order)
    head = f'"element":{{"p":{ctx.p},"nu":{ctx.nu},"coeffs":{{'
    yield "s,dim,expression\n" if csv else f'{{"p":{ctx.p},"nu":{ctx.nu},"n":{n},"rows":['
    for lo, hi in _chunks(table.starts, 1, len(table.starts)):
        bounds = table.starts[lo - 1 : hi]
        first, last = bounds[0], bounds[-1]
        texts = pieces[table.keys[first:last]].tolist()
        if csv:
            # the row x..y-1 read backwards is texts[last - y : last - x]
            texts.reverse()
            rows = ["".join(texts[last - y : last - x]) for x, y in zip(bounds, bounds[1:])]
            lines = [f"{s},{s},{(t[3:] if t[1] == '+' else '-' + t[3:]) if t else '0'}\n"
                     for s, t in zip(range(lo, hi), rows)]
        else:
            lines = [f'{"," if s > 1 else ""}{{"s":{s},"dim":{s},{head}{"".join(texts[x - first : y - first])[1:]}}}}}}}'
                     for s, x, y in zip(range(lo, hi), bounds, bounds[1:])]
        yield "".join(lines)
    if not csv:
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
    every later call reuses it.  A call parses its arguments once: when the
    first names a command, with that command's parser alone, and otherwise
    (a help flag, an unknown word, nothing) with the top-level parser.
    Either way it accepts, rejects and prints what the top-level
    parse_args does; leftover arguments are refused by the top-level
    parser.  Output goes to the current sys.stdout and sys.stderr.
    """
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command and return its exit code."""
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
