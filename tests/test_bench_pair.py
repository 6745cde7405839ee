"""The per-metric record of tools/bench_pair.py on made-up seed pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
# median 1.0, quartiles 0.98..1.02
STEADY = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
# median 0.28, quartiles 0.21..0.345: wider than 25 % of the median
NOISY = [0.2, 0.4, 0.19, 0.3, 0.35, 0.26, 0.33, 0.25, 0.4, 0.2]


@pytest.mark.parametrize("metric, parent, change, expected", [
    (WALL, STEADY, [0.6] * 10, "better"),
    (WALL, STEADY, [0.6] * 8 + [1.2] * 2, "unchanged"),  # 8 of 10 pairs
    (WALL, STEADY, [x - 0.01 for x in STEADY], "unchanged"),  # gap inside the IQR
    (WALL, STEADY, [1.1] * 10, "unchanged"),
    (WALL, STEADY, [1.3] * 10, "worse"),
    (WALL, NOISY, [0.33] * 10, "unresolved"),
    (WALL, NOISY, [0.5] * 10, "unresolved"),
    (WALL, NOISY, [0.1] * 10, "better"),  # every change run beats every parent run
    (RATE, STEADY, [1.5] * 10, "better"),
    (RATE, STEADY, [0.7] * 10, "worse"),
])
def test_verdict(metric, parent, change, expected):
    assert bench_pair.verdict(metric, parent, change) == expected


def test_no_gain_with_more_failed_ops():
    assert bench_pair.verdict(WALL, STEADY, [0.6] * 10, 0, 0) == "better"
    assert bench_pair.verdict(WALL, STEADY, [0.6] * 10, 0, 1) == "unchanged"


def _runs(parent, change):
    def side(v):
        return {"metrics": {"wall_s": {"value": v}}, "failed": 0, "attempted": 10,
                "digest": "d", "correct": True, "exit_code": 0}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


def test_pair_ratio_quartiles_show_the_paired_effect():
    # seeds twofold apart in cost: the change is 40 % faster in every pair, yet
    # its median sits inside the parent's quartiles across seeds
    parent = [1.0, 2.0] * 5
    change = [0.6 * v for v in parent]
    entry = bench_pair.summarize([WALL], _runs(parent, change), list(range(1, 11)))
    assert entry["pair_ratio_quartiles"]["wall_s"] == [0.6, 0.6, 0.6]
    assert entry["parent"]["wall_s_quartiles"] == [1.0, 2.0]
    assert entry["change_better_pairs"]["wall_s"] == "10/10"
    assert entry["verdict"]["wall_s"] == "unresolved"  # the verdict still reads the seeds


def test_pair_ratio_quartiles_skip_zero_parents():
    assert bench_pair.pair_ratio_quartiles([0.0, 2.0, 4.0], [1.0, 1.0, 3.0]) == [0.5625, 0.625, 0.6875]
    assert bench_pair.pair_ratio_quartiles([0.0], [1.0]) is None


@pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("1,2,5", [1, 2, 5]),
                                         ("1-2,7", [1, 2, 7]), ("", [])])
def test_seed_list(text, seeds):
    # "" is no seeds, so --trace-seeds '' skips the traced runs
    assert bench_pair.seed_list(text) == seeds
