"""greenring benchmark: seeded session workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload adams-table --seed 1 --seconds 35 --trace 0

Workloads: adams-table, ring-mul, oracle-decompose (see README.md here).

A run repeats the workload's op stream, which is fixed by the seed, a fixed
number of times: --seconds // REPETITION_S, at least once.  A repetition takes
about REPETITION_S seconds at the seed commit, so a run measures about
--seconds there; a faster or slower program does the same work, so every
commit's tail percentile is taken over the same number of op times.  Each
session of the stream is a fresh process (perfbench/worker.py) that imports
greenring from the checkout's `src`, so every session starts from cold caches.
Sessions run one at a time: a single closed-loop client with one thread.  The
per-op metrics pool the op times of every repetition in the run.

--trace 0 prints the end-to-end metrics; --trace 1 runs half as many pairs of
repetitions (rounded up), each pair once untraced and once traced in
alternating order, and prints the per-layer metrics, including the tracing
overhead.  The outputs of the first repetition are checked against the
paper's identities outside the timed region; every later repetition must give
byte-identical outputs.  The last stdout line is one JSON object; the exit code
is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"
WORKER_TIMEOUT_S = 170
# no new repetition starts after this much wall time, so a run ends within 180 s
RUN_WALL_LIMIT_S = 100
# CPU seconds of one repetition of any workload's stream at the seed commit (10-12 s)
REPETITION_S = 11


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples above it.

    With fewer than eleven samples no such percentile exists, and the maximum
    is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def repetition_mismatches(reps: list[dict]) -> list[str]:
    """Ops whose output in a later repetition differs from the first (checked) one."""
    first = reps[0]["op_digests"]
    return [f"op {i}: output differs from the first repetition's"
            for r in reps[1:] for i, (a, b) in enumerate(zip(first, r["op_digests"])) if a != b]


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # the library's documented caps would change which ops are refused
    env.pop("GREENRING_ORDER_CAP", None)
    env.pop("GREENRING_ORACLE_CAP", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_session(workload: str, index: int, session: dict, traced: bool, check: bool = True) -> dict:
    contexts = ",".join(f"{p}x{nu}" for p, nu in session["contexts"])
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--contexts", contexts, "--trace", "1" if traced else "0",
           "--check", "1" if check else "0"]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}-{index}.tsv")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, input=json.dumps(session), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, env=_worker_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"session {index} worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    return result


def run_stream(workload: str, stream: list[dict], traced: bool, check: bool = True) -> dict:
    sessions = [run_session(workload, i, s, traced, check) for i, s in enumerate(stream)]
    times = [t / 1e9 for s in sessions for t in s["times_ns"]]
    digest = hashlib.sha256("".join(s["digest"] for s in sessions).encode()).hexdigest()
    rep = {
        "wall_s": sum(times),
        "times": times,
        "wall_clock_s": sum(t / 1e9 for s in sessions for t in s["walls_ns"]),
        "setup": [s["setup_cpu_s"] for s in sessions],
        "setup_wall": [s["setup_wall_s"] for s in sessions],
        "rss_mb": max(s["rss_kb"] for s in sessions) / 1024,
        "failed": [f for s in sessions for f in s["failed"]],
        "mismatches": [m for s in sessions for m in s["mismatches"]],
        "probe": [p for s in sessions for p in s["probe"]],
        "digest": digest,
        "op_digests": [d for s in sessions for d in s["op_digests"]],
    }
    if traced:
        rep["layers"] = [s["layers"] for s in sessions]
        rep["missing"] = sorted({m for s in sessions for m in s["missing"]})
        rep["restored"] = all(s["restored"] for s in sessions)
    return rep


def layer_totals(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced stream: sums over its sessions."""
    out = {}
    for name in tracer.METRICS:
        values = [s[name] for s in rep["layers"]]
        out[name] = max(values) if name.endswith("_max") else sum(values)
    requested = out["oracle.basis_pairs_requested"]
    hits = sum(s["oracle.pair_hit_ratio"] * s["oracle.basis_pairs_requested"] for s in rep["layers"])
    out["oracle.pair_hit_ratio"] = hits / requested if requested else 0.0
    return out


def input_properties(workload: str, stream: list[dict]) -> list[str]:
    ops = sum(len(s["ops"]) for s in stream)
    lines = [f"stream: {len(stream)} sessions, {ops} ops"]
    if workload == "adams-table":
        hits, total = workloads.fold_reuse_share(stream)
        lines.append(f"psi exponents folding onto a representative already computed: {hits}/{total}")
    elif workload == "ring-mul":
        repeats, total = workloads.mul_pair_repeat_share(stream)
        probes = sum(len(s["probe"]) for s in stream)
        lines.append(f"mul basis pairs repeating within their session: {repeats}/{total}")
        lines.append(f"capacity probe ops (untimed, valid, refused at the seed commit): "
                     f"{probes} beside {ops} ops")
    else:
        hist = workloads.dimension_histogram(stream)
        lines.append("matrix dimension d histogram: " + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "greenring" / "__init__.py").is_file():
        print(f"error: no greenring package under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    stream = workloads.stream(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    repetitions = max(1, int(args.seconds // REPETITION_S))
    rounds = (repetitions + 1) // 2 if args.trace else repetitions
    for i in range(rounds):
        if i and time.monotonic() - started > RUN_WALL_LIMIT_S:
            break
        order = [False] if not args.trace else ([False, True] if i % 2 == 0 else [True, False])
        for mode in order:
            rep = run_stream(args.workload, stream, mode, check=not (plain or traced))
            (traced if mode else plain).append(rep)

    reps = plain + traced
    attempted = sum(len(r["times"]) for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    mismatches = [m for r in reps for m in r["mismatches"]]
    probe = [p for r in plain for p in r["probe"]]
    mismatches += repetition_mismatches(reps)

    digest_note = "not recorded for this seed"
    recorded = json.loads(BASELINE.read_text()).get("digests", {}) if BASELINE.is_file() else {}
    want = recorded.get(args.workload)
    if want and want["seed"] == args.seed:
        bad = [r["digest"] for r in reps if r["digest"] != want["sha256"]]
        digest_note = "matches the recorded digest" if not bad else "DIFFERS from the recorded digest"
        if bad:
            mismatches.append(f"output digest {bad[0]} != recorded {want['sha256']}")
    if traced and not all(r["restored"] for r in traced):
        mismatches.append("tracer left a greenring attribute changed")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetition(s)")
    for line in input_properties(args.workload, stream):
        print(f"  {line}")
    ops_per_rep = len(plain[0]["times"])
    print(f"  fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for op_id, msg in sorted({(f[0], f[1]) for r in reps for f in r["failed"]}):
        print(f"    failed op {op_id}: {msg}")
    if probe:
        print(f"  capacity probe: {probe.count('refused')}/{len(probe)} refused, "
              f"{probe.count('ok')} computed and checked")
    print(f"  mismatches: {len(mismatches)}")
    for m in mismatches[:20]:
        print(f"    {m}")
    print(f"  output digest (first repetition): {plain[0]['digest']} ({digest_note})")

    metrics: dict[str, dict] = {}
    if not args.trace:
        times = [t for r in plain for t in r["times"]]
        op_tail, tail_pct = tail(times)
        values = {
            "setup_s": (statistics.median(s for r in plain for s in r["setup"]), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_tail_ms": (op_tail * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
        }
        for name, (value, unit) in values.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<12} {value:14.4f} {unit}")
        print(f"  (wall_s is the median of {len(plain)} repetition(s) of {ops_per_rep} ops; "
              f"op_tail_ms is p{tail_pct:.1f} of their {len(times)} op times; setup_s is the "
              f"median of {sum(len(r['setup']) for r in plain)} process starts)")
        print(f"  (times are CPU time; by the wall clock the stream took "
              f"{statistics.median(r['wall_clock_s'] for r in plain):.4f} s and set-up "
              f"{statistics.median(s for r in plain for s in r['setup_wall']):.4f} s)")
    else:
        per_rep = [layer_totals(r) for r in traced]
        for name, unit in tracer.METRICS.items():
            value = statistics.median(p[name] for p in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<30} {value:16.6f} {unit}")
        overhead = sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain) - 1
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        print(f"  {'trace_overhead':<30} {overhead:16.6f} ratio")
        requested = metrics["oracle.basis_pairs_requested"]["value"]
        print(f"  (oracle.pair_hit_ratio base: {requested:.0f} basis pairs requested; "
              f"core.coeff_slots_built is computed as elements x q)")
        if traced[0]["missing"]:
            print(f"  not found, so not traced: {', '.join(traced[0]['missing'])}")

    correct = not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
