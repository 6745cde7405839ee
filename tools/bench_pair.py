#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit and write BENCH_<n>.json.

Usage (from anywhere inside the repository):

    python3 tools/bench_pair.py --out BENCH_8.json --change "what the change does"
        [--parent HEAD] [--seeds 1-10] [--trace-seeds 1,2]
        [--workloads adams-table,ring-mul,oracle-decompose]

--trace-seeds '' skips the traced runs.

The parent side is a `git archive` of --parent; the change side is a copy of
the working tree (tracked files and untracked files that git does not
ignore).  Each side is a fresh directory, so neither sees the other's
`.perfbench/` output.  For each seed the two sides run `perfbench/run.py`
for the run_seconds of BENCHMARK.json, back to back, the parent first on odd
seeds and the change first on even ones.  The file records, per workload,
the median and quartiles (linear interpolation) of every end-to-end metric
on each side, every run's values, in how many seed pairs the change was
better, the quartiles of the change/parent ratio within each seed pair (see
`pair_ratio_quartiles`), a verdict per metric (see `verdict`), whether the output digests
agree, and whether seed 0 matches `perfbench/baseline.json`; then the
medians of the per-layer metrics from `--trace 1` runs of --trace-seeds,
and the machine (nproc, Python and numpy versions).  Only the standard
library is used here.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adams-table", "ring-mul", "oracle-decompose")
DIGEST_RE = re.compile(r"output digest \(first repetition\): ([0-9a-f]+) \((.*)\)")
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list[int]:
    """Seeds from "1-10" or "1,2,5" (ranges inclusive); "" is none."""
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export_commit(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py: its final JSON object plus the output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {side} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    found = DIGEST_RE.search(proc.stdout)
    result["digest"], result["digest_note"] = found.groups() if found else (None, None)
    result["exit_code"] = proc.returncode
    return result


def pair(sides: dict[str, Path], seed: int, **kwargs) -> dict[str, dict]:
    """Both sides on one seed, the parent first on odd seeds."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    return {name: run(sides[name], seed=seed, **kwargs) for name in order}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def pair_wins(metric: dict, parent: list[float], change: list[float]) -> int:
    """The seed pairs in which the change read better; ties count for neither."""
    sign = 1 if metric["better"] == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def pair_ratio_quartiles(parent: list[float], change: list[float]) -> list[float] | None:
    """[q1, median, q3] of change/parent within each seed pair with a nonzero parent.

    The seeds of one workload can differ twofold in cost, which widens each
    side's quartiles across seeds; a ratio within one pair cancels the seed's
    own cost, so these quartiles show the paired effect.  None when every
    parent value is 0.
    """
    ratios = [c / p for p, c in zip(parent, change) if p]
    if not ratios:
        return None
    q1, q3 = quartiles(ratios)
    return [q1, round(statistics.median(ratios), 4), q3]


def verdict(metric: dict, parent: list[float], change: list[float],
            parent_failed: int = 0, change_failed: int = 0) -> str:
    """better, worse, unresolved or unchanged, for one metric over seed pairs.

    parent[k] and change[k] are the two runs of one seed.  better: the change
    reads better in at least 9 of 10 pairs (ties count for neither) and its
    median beats the parent's by more than the parent's interquartile range,
    or every change run beats every parent run; either way with no more
    failed ops than the parent.  Otherwise unresolved when the parent's own
    interquartile range is wider than the metric's bound (a fraction of the
    parent's median), since noise alone could then cross the bound; worse
    when the change's median is worse than the parent's by more than the
    bound; and unchanged when it is not.
    """
    sign = 1 if metric["better"] == "lower" else -1
    wins = pair_wins(metric, parent, change)
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gap = sign * (mid_p - mid_c)
    bound = metric["bound"] * abs(mid_p)
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    if change_failed <= parent_failed and (
            (10 * wins >= 9 * len(parent) and gap > q3 - q1) or separated):
        return "better"
    if q3 - q1 > bound:
        return "unresolved"
    return "worse" if -gap > bound else "unchanged"


def summarize(metrics: list[dict], runs: list[dict[str, dict]], seeds: list[int]) -> dict:
    """The end-to-end record of one workload over its seed pairs."""
    sides = ("parent", "change")
    values = {name: {m["name"]: [r[name]["metrics"][m["name"]]["value"] for r in runs]
                     for m in metrics} for name in sides}
    out: dict = {"seeds": seeds}
    for name in sides:
        side: dict = {}
        for m in metrics:
            side[m["name"]] = round(statistics.median(values[name][m["name"]]), 4)
            side[m["name"] + "_quartiles"] = quartiles(values[name][m["name"]])
        side["failed_ops"] = sum(r[name]["failed"] for r in runs)
        side["attempted_ops"] = sum(r[name]["attempted"] for r in runs)
        out[name] = side
    parent, change = values["parent"], values["change"]
    out["change_better_pairs"] = {
        m["name"]: f"{pair_wins(m, parent[m['name']], change[m['name']])}/{len(runs)}"
        for m in metrics}
    out["pair_ratio_quartiles"] = {
        m["name"]: pair_ratio_quartiles(parent[m["name"]], change[m["name"]]) for m in metrics}
    out["verdict"] = {
        m["name"]: verdict(m, parent[m["name"]], change[m["name"]],
                           out["parent"]["failed_ops"], out["change"]["failed_ops"])
        for m in metrics}
    out["runs"] = {name: {k: [round(v, 4) for v in vs] for k, vs in values[name].items()}
                   for name in sides}
    out["digests_identical"] = all(r["parent"]["digest"] == r["change"]["digest"] for r in runs)
    out["all_runs_correct"] = all(r[name]["correct"] and r[name]["exit_code"] == 0
                                  for r in runs for name in sides)
    return out


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy
    except ImportError:
        info["numpy"] = None
    else:
        info["numpy"] = numpy.__version__
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_8.json")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=seed_list("1-2"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    record: dict = {
        "change": args.change,
        "parent": parent,
        "machine": machine(),
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "[--trace 1] from fresh copies of the parent (git archive) and of the "
                   "change (the working tree); the two runs of a seed back to back, the parent "
                   "first on odd seeds and the change first on even seeds; medians and "
                   "quartiles (linear interpolation) over the seeds listed; times are CPU "
                   "seconds; change_better_pairs counts the seed pairs in which the change "
                   "read better, ties counting for neither; pair_ratio_quartiles are the "
                   "quartiles and median of change/parent within each seed pair; verdict per "
                   "metric as in "
                   "bench_pair.verdict; seed 0 ran once more with "
                   "--seconds 1 on both sides to check perfbench/baseline.json"),
        "end_to_end": {},
        "per_layer": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_commit(args.parent, sides["parent"])
        sides["change"].mkdir()
        export_worktree(sides["change"])
        for workload in workloads:
            runs = []
            for seed in args.seeds:
                runs.append(pair(sides, seed, workload=workload, seconds=seconds, trace=0))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} wall_s {r['metrics']['wall_s']['value']:.4f}"
                    for name, r in runs[-1].items()), file=sys.stderr, flush=True)
            entry = summarize(bench["end_to_end"], runs, args.seeds)
            zero = pair(sides, 0, workload=workload, seconds=1, trace=0)
            entry["digests_identical"] = entry["digests_identical"] and (
                zero["parent"]["digest"] == zero["change"]["digest"])
            entry["seed0_matches_baseline"] = all(
                r["digest_note"] == "matches the recorded digest" for r in zero.values())
            record["end_to_end"][workload] = entry

            traced = [pair(sides, seed, workload=workload, seconds=seconds, trace=1)
                      for seed in args.trace_seeds]
            if traced:
                record["per_layer"].append({
                    "workload": workload,
                    "seeds": args.trace_seeds,
                    **{name: {m: round(statistics.median(t[name]["metrics"][m]["value"] for t in traced), 4)
                              for m in traced[0][name]["metrics"]}
                       for name in ("parent", "change")},
                })
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
