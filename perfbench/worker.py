"""One benchmark session, run as its own process.

The process imports greenring from the checkout's `src`, builds the session's
ring contexts and reports the CPU time that set-up took (and, for reference,
the monotonic time at which it finished).  It then reads the session's ops as
JSON on stdin and runs them one after another, keeping the library's caches
across them.  Only the ops themselves are timed: by CPU time (see cpu_ns) and,
for reference, by the wall clock.  Afterwards, untimed, it checks every
output (with --check 1), runs the capacity probe, and prints one JSON result
line on stdout, which holds a SHA-256 digest of each op's output so that a
later, unchecked repetition can be compared with a checked one.

Usage: python3 perfbench/worker.py --src SRC --contexts 7x2,5x2 --trace 0|1
       [--check 0|1] [--spans FILE] < session.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks


def _load(src: str):
    sys.path.insert(0, src)
    import greenring
    import greenring.cli  # noqa: F401  (the CLI ops look it up at call time)

    if not Path(greenring.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"greenring was imported from {greenring.__file__}, not {src}")
    return greenring


def cpu_ns() -> int:
    """CPU time of this process and its reaped children, in nanoseconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((children.ru_utime + children.ru_stime) * 1e9)


def run_cli(gr, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gr.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_decompose(gr, ctx, op: dict) -> list[list[int]]:
    if op["build"] == "tensor":
        g = gr.tensor(ctx, gr.realize(ctx, op["a"]), gr.realize(ctx, op["b"]))
    elif op["build"] == "wedge":
        g = gr.wedge(ctx, op["n"], gr.realize(ctx, op["r"]))
    else:
        g = gr.sym(ctx, op["n"], gr.realize(ctx, op["r"]))
    return [list(t) for t in gr.decompose(ctx, g).multiplicities]


def second_routes(gr, ctx, op: dict) -> dict[str, list]:
    """Independent computations of a decompose op's multiplicities."""
    if op["build"] == "tensor":
        return {"pair_product": list(gr.pair_product(ctx, op["a"], op["b"]).multiplicities)}
    n, r = op["n"], op["r"]
    if op["build"] == "wedge":
        default = gr.wedge_decomposition(ctx, n, r)
        newton = gr.exterior_power(ctx, n, gr.basis_element(ctx, r))
    else:
        default = gr.sym_decomposition(ctx, n, r)
        newton = gr.symmetric_power(ctx, n, gr.basis_element(ctx, r))
    return {"default": list(default.multiplicities), "newton": list(newton.items())}


def _swap(argv: list[str]) -> list[str]:
    a = next(x for x in argv if x.startswith("--a="))
    b = next(x for x in argv if x.startswith("--b="))
    return [("--a=" + b[4:]) if x == a else ("--b=" + a[4:]) if x == b else x for x in argv]


def _op_digest(out) -> str:
    text = out if isinstance(out, str) else json.dumps(out)
    return hashlib.sha256(text.encode()).hexdigest()


def run_session(gr, session: dict, ctxs: dict, tracer=None, check: bool = True) -> dict:
    """Run one session's ops (timed), then check them (untimed).

    With check=False the outputs are only digested, not checked, and the
    capacity probe does not run.
    """
    times, walls, results, failed = [], [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for op in session["ops"]:
            if op.get("clear_cache"):
                gr.clear_cache()
            if tracer is not None:
                tracer.op_id = op["id"]
            w0, t0 = time.perf_counter_ns(), cpu_ns()
            if op["kind"] == "cli":
                rc, out, err = run_cli(gr, op["argv"])
                ok = rc == 0
                results.append(out if ok else err)
            else:
                try:
                    results.append(run_decompose(gr, ctxs[tuple(op["ctx"])], op))
                    ok = True
                except Exception as exc:  # an op that raises counts as failed
                    results.append(f"{type(exc).__name__}: {exc}")
                    ok = False
            times.append(cpu_ns() - t0)
            walls.append(time.perf_counter_ns() - w0)
            if not ok:
                failed.append([op["id"], str(results[-1]).strip()])
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    mismatches = []
    digest = hashlib.sha256()
    failed_ids = {i for i, _ in failed}
    op_digests = [_op_digest(out) for out in results]
    for op, out in zip(session["ops"], results):
        if op["id"] in failed_ids:
            continue
        if op["kind"] == "cli":
            digest.update(out.encode() + b"\0")
        else:
            digest.update(json.dumps(out).encode())
        if not check:
            continue
        if op["kind"] == "cli":
            errs = checks.check_output(op["check"], out)
            if op["check"].get("commute"):
                rc, swapped, _ = run_cli(gr, _swap(op["argv"]))
                if rc != 0 or swapped != out:
                    errs.append("mul: b*a differs from a*b")
        else:
            ctx = ctxs[tuple(op["ctx"])]
            errs = checks.check_decomposition(op, out, second_routes(gr, ctx, op))
        mismatches += [f"op {op['id']} ({' '.join(op.get('argv', [op.get('build', '')]))}): {e}" for e in errs]

    probe = []
    for op in session["probe"] if check else []:
        rc, out, err = run_cli(gr, op["argv"])
        if rc == 0:
            errs = checks.check_output(op["check"], out)
            mismatches += [f"probe {' '.join(op['argv'])}: {e}" for e in errs]
            probe.append("ok")
        elif rc == 2 and "exceeds cap" in err:
            probe.append("refused")
        else:
            mismatches.append(f"probe {' '.join(op['argv'])}: exit {rc}: {err.strip()}")
            probe.append("error")

    return {
        "times_ns": times,
        "walls_ns": walls,
        "failed": failed,
        "mismatches": mismatches,
        "digest": digest.hexdigest(),
        "op_digests": op_digests,
        "rss_kb": rss_kb,
        "probe": probe,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--contexts", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    gr = _load(args.src)
    ctxs = {}
    for item in args.contexts.split(","):
        p, nu = (int(v) for v in item.split("x"))
        ctxs[(p, nu)] = gr.RingContext(p, nu)
    ready = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    setup_cpu = own.ru_utime + own.ru_stime

    session = json.load(sys.stdin)
    tracer = None
    if args.trace:
        import tracer as tracing

        before = tracing.snapshot()
        tracer = tracing.Tracer()
    result = run_session(gr, session, ctxs, tracer, bool(args.check))
    result["ready"] = ready
    result["setup_cpu_s"] = setup_cpu
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        result["restored"] = tracing.same_snapshot(before, tracing.snapshot())
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
