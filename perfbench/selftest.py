"""Self-tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

gr = worker._load(str(run.SRC))


def _cli(argv: list[str], check: dict, op_id: int = 0) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "check": check}


# a small session touching every traced layer
SMALL = {
    "contexts": [[3, 2]],
    "ops": [
        dict(_cli(["table", "--p", "3", "--nu", "2", "--n", "2", "--format", "csv"],
                  {"type": "table", "p": 3, "nu": 2, "n": 2, "format": "csv"}, 0), clear_cache=True),
        _cli(["mul", "--p", "3", "--nu", "2", "--a=V2+V5", "--b=-V3"],
             {"type": "mul", "p": 3, "nu": 2, "a": [[5, 1], [2, 1]], "b": [[3, -1]], "commute": True}, 1),
        _cli(["sym", "--p", "3", "--nu", "2", "--n", "2", "--element=V4-V1"],
             {"type": "sym", "p": 3, "nu": 2, "n": 2, "x": [[4, 1], [1, -1]]}, 2),
        {"id": 3, "kind": "decompose", "ctx": [3, 2], "build": "tensor", "a": 4, "b": 5, "d": 20},
        {"id": 4, "kind": "decompose", "ctx": [3, 2], "build": "wedge", "n": 2, "r": 6, "d": 15},
    ],
    "probe": [],
}


def _run_small(traced=None) -> dict:
    ctxs = {(3, 2): gr.RingContext(3, 2)}
    return worker.run_session(gr, SMALL, ctxs, traced)


class StreamTests(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.stream(name, 11), workloads.stream(name, 11), name)

    def test_different_seed_different_ops(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.stream(name, 11), workloads.stream(name, 12), name)

    def test_ops_are_valid_inputs(self):
        for op in workloads.stream("oracle-decompose", 3)[0]["ops"]:
            self.assertTrue(100 <= op["d"] <= 704)
        for session in workloads.stream("ring-mul", 3):
            for op in session["probe"]:
                c = op["check"]
                if c["type"] == "mul":
                    size = c["a"][0][0] * c["b"][0][0]
                else:
                    size = c["x"][0][0] ** 2
                self.assertGreater(size, workloads.ORACLE_CAP)


    def test_seed_keeps_the_op_template(self):
        def template(name, seed):
            ops = [op for s in workloads.stream(name, seed) for op in s["ops"]]
            if name == "oracle-decompose":
                return sorted((op["build"] == "tensor", tuple(op["ctx"]), op.get("n"),
                               op["d"] if op["build"] != "tensor" else 0) for op in ops)
            # lambda and sym of the same degree cost about the same
            return sorted((op["check"]["type"] in ("lambda", "sym"), op["argv"][0] == "table",
                           op["check"]["p"], op["check"]["nu"], op["check"].get("n", 0)
                           if op["check"]["type"] in ("lambda", "sym") else 0) for op in ops)

        for name in workloads.WORKLOADS:
            self.assertEqual(template(name, 11), template(name, 12), name)


class TracerTests(unittest.TestCase):
    def test_traced_run_restores_attributes(self):
        before = tracer.snapshot()
        t = tracer.Tracer()
        result = _run_small(t)
        self.assertTrue(tracer.same_snapshot(before, tracer.snapshot()))
        self.assertEqual(result["mismatches"], [])
        self.assertEqual(t.missing, [])

    def test_traced_session_counts_every_layer(self):
        # a fresh worker process, so every cache starts cold
        result = run.run_session("selftest", 0, SMALL, traced=True)
        self.assertTrue(result["restored"])
        self.assertEqual(result["mismatches"], [])
        self.assertEqual(result["missing"], [])
        layers = result["layers"]
        for name in ("cli.self_s", "adams.spread_calls", "oracle.multiply_calls",
                     "oracle.pair_product_calls", "powers.newton_products",
                     "oracle.decompose_calls", "gfp.column_basis_calls", "core.elements_built"):
            self.assertGreater(layers[name], 0, name)
        self.assertEqual(layers["oracle.decompose_dim_sum"], 35)
        self.assertEqual(layers["oracle.decompose_dim_max"], 20)

    def test_self_time_excludes_children(self):
        t = tracer.Tracer()
        t.spans = [("cli.main", 0, 100, -1, 0), ("adams.adams", 10, 70, 0, 0),
                   ("core.add", 20, 30, 1, 0)]
        layers = t.summary()
        self.assertAlmostEqual(layers["cli.self_s"], 40e-9)
        self.assertAlmostEqual(layers["adams.self_s"], 50e-9)
        self.assertAlmostEqual(layers["core.add_s"], 10e-9)


class CheckerTests(unittest.TestCase):
    def test_clean_session_passes(self):
        self.assertEqual(_run_small()["mismatches"], [])

    def test_planted_wrong_product_is_rejected(self):
        real = gr.cli.multiply

        def perturbed(a, b):
            return real(a, b) + gr.basis_element(a.ctx, 1)

        gr.cli.multiply = perturbed
        try:
            result = _run_small()
        finally:
            gr.cli.multiply = real
        self.assertTrue(any("mul" in m for m in result["mismatches"]), result["mismatches"])

    def test_planted_outputs_are_rejected(self):
        mul = SMALL["ops"][1]["check"]
        self.assertEqual(checks.check_output(mul, "-2V9 - V3\n"), [])
        self.assertNotEqual(checks.check_output(mul, "-2V9 - V3 + V1\n"), [])
        table = {"type": "table", "p": 3, "nu": 1, "n": 2, "format": "csv"}
        good = "s,dim,expression\n1,1,V1\n2,2,V3 - V1\n3,3,V3\n"
        self.assertEqual(checks.check_output(table, good), [])
        self.assertNotEqual(checks.check_output(table, good.replace("V3 - V1", "V1 + V1")), [])
        self.assertNotEqual(checks.check_output(table, good.replace("2,2,V3 - V1", "2,2,V2")), [])
        op = SMALL["ops"][3]
        self.assertNotEqual(checks.check_decomposition(op, [[4, 2], [5, 1], [2, 1]], {}), [])
        self.assertNotEqual(
            checks.check_decomposition(op, [[8, 2], [4, 1]], {"pair_product": [[8, 2], [3, 1], [1, 1]]}), [])

    def test_generalized_binomials(self):
        self.assertEqual(checks.gbinom(5, 2), 10)
        self.assertEqual(checks.gbinom(-2, 2), 3)
        self.assertEqual(checks.gbinom(1, 3), 0)


class RepetitionTests(unittest.TestCase):
    def test_later_repetition_must_match_the_first(self):
        reps = [{"op_digests": ["a", "b"]}, {"op_digests": ["a", "b"]}]
        self.assertEqual(run.repetition_mismatches(reps), [])
        reps.append({"op_digests": ["a", "c"]})
        self.assertEqual(len(run.repetition_mismatches(reps)), 1)

    def test_unchecked_session_digests_the_same_outputs(self):
        ctxs = {(3, 2): gr.RingContext(3, 2)}
        checked = worker.run_session(gr, SMALL, ctxs)
        unchecked = worker.run_session(gr, SMALL, ctxs, check=False)
        self.assertEqual(checked["op_digests"], unchecked["op_digests"])
        self.assertEqual(checked["digest"], unchecked["digest"])


class StatisticsTests(unittest.TestCase):
    def test_tail_has_ten_samples_above(self):
        value, pct = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([3.0, 1.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
