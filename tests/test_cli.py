import hashlib
import importlib
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from greenring import (
    GreenRingError,
    RingContext,
    adams,
    adams_basis,
    adams_table,
    basis_element,
    clear_cache,
    dim,
    exterior_power,
    format_element,
    from_dict,
    multiply,
    parse_element,
    to_dict,
)
from greenring import suites
from greenring.adams import ShapeClause
from greenring.cli import _build_parser, _dispatch, main

WORKED_23 = (
    "V49 - V47 + V45 - V39 + V37 - V35 + V33 - V31 + V25"
    " - V23 + V19 - V17 + V11 - V9 + V7 - V5 + V3"
)


def reference_table_text(ctx, n, fmt):
    """The table as it was written from per-value results: format_element
    per CSV row, json.dumps per JSON row."""
    values = [adams(ctx, n, basis_element(ctx, s)) for s in range(1, ctx.order + 1)]
    if fmt == "csv":
        return "s,dim,expression\n" + "".join(
            f"{s},{dim(v)},{format_element(v)}\n" for s, v in enumerate(values, 1))
    rows = [json.dumps({"s": s, "dim": dim(v), "element": to_dict(v)}, separators=(",", ":"))
            for s, v in enumerate(values, 1)]
    return f'{{"p":{ctx.p},"nu":{ctx.nu},"n":{n},"rows":[' + ",".join(rows) + "]}\n"


def assert_same_text(got, want):
    """Assert got == want.  On a failure report the lengths, the SHA-256
    digests and the first differing offset with a short window of each
    text, rather than a diff of two whole tables."""
    if got == want:
        return
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (got, want)]
    at = len(os.path.commonprefix([got, want]))
    window = slice(max(at - 40, 0), at + 40)
    pytest.fail(
        f"texts differ: length {len(got)} vs {len(want)}, sha256 {digests[0]} vs {digests[1]};"
        f" first difference at offset {at}: {got[window]!r} vs {want[window]!r}",
        pytrace=False,
    )


def test_text_mismatch_report_is_short():
    with pytest.raises(pytest.fail.Exception) as exc:
        assert_same_text("s,dim\n" * 200_000 + "1", "s,dim\n" * 200_000 + "2")
    report = str(exc.value)
    assert len(report) < 600
    assert "length 1200001 vs 1200001" in report and "offset 1200000" in report


def run_cli(args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "greenring", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestPsiCommand:
    def test_worked_example(self, capsys):
        assert main(["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "23"]) == 0
        assert capsys.readouterr().out.strip() == WORKED_23

    def test_identity_at_two(self, capsys):
        assert main(["psi", "--p", "2", "--nu", "3", "--n", "3", "--s", "5"]) == 0
        assert capsys.readouterr().out.strip() == "V5"

    def test_divisible_exponent_exits_two(self, capsys):
        assert main(["psi", "--p", "5", "--nu", "1", "--n", "5", "--s", "2"]) == 2

    def test_bad_prime_exits_two(self):
        assert main(["psi", "--p", "6", "--nu", "1", "--n", "1", "--s", "2"]) == 2

    def test_huge_nu_exits_two(self, capsys):
        assert main(["psi", "--p", "3", "--nu", "9000", "--n", "2", "--s", "2"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert "exceeds cap" in err and len(err) < 100

    def test_s_out_of_range_exits_two(self):
        assert main(["psi", "--p", "3", "--nu", "1", "--n", "2", "--s", "4"]) == 2

    def test_element_literal(self, capsys):
        assert main(
            ["psi", "--p", "3", "--nu", "2", "--n", "2", "--element", "V8+V1"]
        ) == 0
        out = capsys.readouterr().out.strip()
        assert out == "V9 + V1 - V1" or out == "V9"

    def test_json_round_trip(self, capsys):
        assert main(
            ["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "23", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        ctx = RingContext(7, 2)
        assert from_dict(data) == adams_basis(ctx, 4, 23)

    def test_missing_argument_exits_two(self):
        assert main(["psi", "--p", "7", "--nu", "2", "--n", "4"]) == 2


class TestMulCommand:
    def test_basis_product(self, capsys):
        assert main(["mul", "--p", "3", "--nu", "2", "--a", "V2", "--b", "V2"]) == 0
        assert capsys.readouterr().out.strip() == "V3 + V1"

    def test_json_round_trip(self, capsys):
        assert main(
            ["mul", "--p", "3", "--nu", "2", "--a", "V5-V3", "--b", "2V2", "--format", "json"]
        ) == 0
        ctx = RingContext(3, 2)
        want = multiply(
            basis_element(ctx, 5) - basis_element(ctx, 3), 2 * basis_element(ctx, 2)
        )
        assert from_dict(json.loads(capsys.readouterr().out)) == want

    def test_bad_literal_exits_two(self):
        assert main(["mul", "--p", "3", "--nu", "2", "--a", "W2", "--b", "V1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["mul", "--p", "3", "--nu", "2", "--a", "", "--b", "V2"],
        ["mul", "--p", "3", "--nu", "2", "--a", "V2", "--b", "  "],
        ["psi", "--p", "3", "--nu", "2", "--n", "2", "--element", ""],
    ])
    def test_blank_literal_exits_two(self, argv, capsys):
        # the zero element is written "0"; a blank literal is a usage error
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and "empty element literal" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter reads integers of any length")
    @pytest.mark.parametrize("argv", [
        ["mul", "--p", "3", "--nu", "1", "--a", "9" * 5000 + "V1", "--b", "V1"],
        ["psi", "--p", "3", "--nu", "1", "--n", "1", "--element", "V" + "9" * 5000],
    ], ids=["multiplicity", "index"])
    def test_oversized_integer_in_literal_exits_two(self, argv, capsys):
        # int() refused past the 4,300-digit limit with a bare ValueError,
        # which was reported as an internal error with exit 1
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: integer in element literal at offset 0 has too many digits\n"

    def test_product_beyond_oracle_cap(self, capsys):
        # induced dimension 250000 exceeds the oracle cap; multiply needs no matrix
        assert main(["mul", "--p", "31", "--nu", "2", "--a", "V500", "--b", "V500"]) == 0
        value = parse_element(RingContext(31, 2), capsys.readouterr().out.strip())
        assert dim(value) == 250000


class TestPowerCommands:
    def test_exterior(self, capsys):
        assert main(["lambda", "--p", "5", "--nu", "2", "--n", "2", "--s", "3"]) == 0
        assert capsys.readouterr().out.strip() == "V3"

    def test_symmetric(self, capsys):
        assert main(["sym", "--p", "5", "--nu", "2", "--n", "2", "--s", "3"]) == 0
        assert capsys.readouterr().out.strip() == "V5 + V1"

    def test_square_beyond_oracle_cap(self, capsys):
        assert main(["lambda", "--p", "31", "--nu", "2", "--n", "2", "--s", "300"]) == 0
        value = parse_element(RingContext(31, 2), capsys.readouterr().out.strip())
        assert dim(value) == math.comb(300, 2)

    def test_degree_at_least_p_exits_two(self):
        assert main(["lambda", "--p", "5", "--nu", "2", "--n", "5", "--s", "3"]) == 2


class TestUsageErrorWording:
    # the CLI does not re-check what it hands to the library: the line of a
    # usage error is the message of the library check that owns the argument
    @pytest.mark.parametrize("argv, call", [
        (["psi", "--n", "7", "--s", "5"], lambda ctx: adams(ctx, 7, basis_element(ctx, 5))),
        (["psi", "--n", "0", "--s", "5"], lambda ctx: adams(ctx, 0, basis_element(ctx, 5))),
        (["table", "--n", "14"], lambda ctx: adams_table(ctx, 14)),
        (["lambda", "--n", "7", "--s", "5"],
         lambda ctx: exterior_power(ctx, 7, basis_element(ctx, 5))),
    ], ids=["psi-n7", "psi-n0", "table-n14", "lambda-n7"])
    def test_stderr_is_the_library_message(self, argv, call, capsys):
        with pytest.raises(GreenRingError) as exc:
            call(RingContext(7, 2))
        assert main([argv[0], "--p", "7", "--nu", "2", *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {exc.value}\n"

    def test_verify_names_the_suite(self, capsys):
        with pytest.raises(suites.NotApplicableError) as exc:
            suites.run_suite(RingContext(2, 2), "reciprocity")
        assert main(["verify", "--p", "2", "--nu", "2", "--suite", "reciprocity"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {exc.value}\n" == "error: suite 'reciprocity' requires odd p\n"


class TestTableCommand:
    def test_identity_column(self, capsys):
        assert main(["table", "--p", "3", "--nu", "1", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "s,dim,expression\n1,1,V1\n2,2,V2\n3,3,V3\n"

    def test_regular_row_fixed(self, capsys):
        assert main(["table", "--p", "5", "--nu", "2", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 26
        assert lines[25] == "25,25,V25"

    def test_worked_row(self, capsys):
        assert main(["table", "--p", "7", "--nu", "2", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[23] == f"23,23,{WORKED_23}"

    def test_json_rows_round_trip(self, capsys):
        assert main(["table", "--p", "3", "--nu", "2", "--n", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        ctx = RingContext(3, 2)
        assert data["p"] == 3 and data["nu"] == 2 and data["n"] == 2
        for row in data["rows"]:
            element = from_dict(row["element"])
            assert element == adams_basis(ctx, 2, row["s"])
            assert row["dim"] == row["s"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(
            ["table", "--p", "3", "--nu", "1", "--n", "2", "--out", str(target)]
        ) == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("s,dim,expression\n")
        assert "\r" not in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, fmt):
        args = ["table", "--p", "3", "--nu", "2", "--n", "2", "--format", fmt]
        assert main(args) == 0
        shown = capsys.readouterr().out
        target = tmp_path / f"table.{fmt}"
        assert main([*args, "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == shown
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_after_a_larger_table_prints_as_cold(self, capsys, fmt):
        # the text pieces grown for q = 1024 serve the q = 49 table that
        # follows, its rows' first terms read from the far half of the
        # longer array; a fresh interpreter sizes them for q = 49
        args = ["table", "--p", "7", "--nu", "2", "--n", "3", "--format", fmt]
        assert main(["table", "--p", "2", "--nu", "10", "--n", "3", "--format", fmt]) == 0
        capsys.readouterr()
        assert main(args) == 0
        code, out, err = run_cli(args)
        assert code == 0 and not err
        assert_same_text(capsys.readouterr().out, out)

    def test_unwritable_out_exits_one(self):
        assert main(
            ["table", "--p", "3", "--nu", "1", "--n", "2", "--out", "/nonexistent/x.csv"]
        ) == 1

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--p", "31", "--nu", "2", "--n", "3"],
                "7d616c4af778b83110b43ee3cff235d846ca4c630cba8ac3c3e0ac3161ce5c8c",
            ),
            (
                ["--p", "5", "--nu", "4", "--n", "3", "--format", "json"],
                "d14bca87c148438bdfed2e01598d1d60f7ca6315cacc2fd37584acaad2b77ef9",
            ),
            (
                ["--p", "1021", "--nu", "1", "--n", "5"],
                "fd78b038320cbbebca5e386b642934521de4b746a990b3a29b631f1d6fb99481",
            ),
            (
                ["--p", "31", "--nu", "2", "--n", "11", "--format", "json"],
                "fc264f3a6f6f77977473e0f60747d431ec4396ecfbb430801ff2f8122bc83358",
            ),
            (
                ["--p", "2", "--nu", "10", "--n", "3"],
                "cd2ccb0f28f8a8c355f0aa7f54b95341d76eafc402cc057d2c93a98e42d4868a",
            ),
            (
                ["--p", "3", "--nu", "6", "--n", "2", "--format", "json"],
                "6f0faaa2082075fdca278a111bf535019dea43f7315227285ba383cf59ebcec3",
            ),
        ],
    )
    def test_golden_digest(self, args, digest, capsys):
        # SHA-256 of stdout as printed when elements were stored densely (the
        # first two), before spreads were added straight into the recursion's
        # accumulator (the order-cap pair) and, for the ten-level and six-level
        # tables, when the table kernel still read its values out as elements;
        # a change of storage, recursion or formatting must not move a single byte
        assert main(["table", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("p, nu, n", [
        (31, 2, 11), (1021, 1, 5), (2, 10, 3), (3, 6, 2), (5, 4, 3), (3, 1, 2), (2, 1, 1),
    ])
    def test_bytes_match_per_value_reference(self, p, nu, n, fmt, capsys):
        ctx = RingContext(p, nu)
        clear_cache(ctx)
        assert main(["table", "--p", str(p), "--nu", str(nu), "--n", str(n), "--format", fmt]) == 0
        out = capsys.readouterr().out
        clear_cache(ctx)  # the reference runs the per-value recursion afresh
        assert_same_text(out, reference_table_text(ctx, n, fmt))


class TestVerifyCommand:
    def test_shape_sweep_pinned_count(self, capsys):
        assert main(["verify", "--p", "3", "--nu", "3", "--suite", "shape"]) == 0
        out = capsys.readouterr().out
        assert "alternating shape: 486/486 (n,s) pairs pass" in out
        assert out.strip().endswith("RESULT: PASS")

    def test_gow_laffey_needs_odd_p(self, capsys):
        assert main(["verify", "--p", "2", "--nu", "2", "--suite", "gow-laffey"]) == 2

    def test_unknown_suite_exits_two(self):
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "bogus"]) == 2

    def test_all_passes_small(self, capsys):
        assert main(["verify", "--p", "2", "--nu", "2", "--suite", "all"]) == 0

    @pytest.mark.parametrize("var", ["GREENRING_ORDER_CAP", "GREENRING_ORACLE_CAP"])
    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_cap_setting_exits_two(self, var, raw, monkeypatch, capsys):
        # verify --suite oracle reads both caps
        monkeypatch.setenv(var, raw)
        assert main(["verify", "--p", "2", "--nu", "1", "--suite", "oracle"]) == 2
        assert var in capsys.readouterr().err

    def test_reciprocity_large_context(self, capsys):
        assert main(["verify", "--p", "7", "--nu", "2", "--suite", "reciprocity"]) == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out

    def test_failing_cases_are_counted_and_named(self, monkeypatch, capsys):
        # one planted fault of the table at f = 2, V_5's row emptied, and one
        # planted shape failure.  The class f = 2 holds the exponents 2 and 4
        # of the dimension sweep and 2, 4 and 8 of the shape sweep at p = 3:
        # each sweep checks a class once on its first exponent and repeats
        # the verdict for the others.  It holds the raw exponents 8 and 10 of
        # the period sweep (c = 2, 4) and 4 of the reflection sweep (j = 2),
        # each checked against the closed form on its own, and 2 and 4 of the
        # complement sweep, where V_5 is the complement of V_4 at m = 2.
        # Each line counts its failing cases and names the first one in
        # sweep order, alone and under "all", where the sweeps share tables
        real_table = suites._table
        real_shape_clauses = suites._shape_clauses

        def table(c, f):
            rows = real_table(c, f)
            if f == 2:
                a, b = rows.starts[4], rows.starts[5]
                rows = type(rows)(np.concatenate([rows.starts[:5], rows.starts[5:] - (b - a)]),
                                  np.delete(rows.cols, np.s_[a:b]), np.delete(rows.coefs, np.s_[a:b]))
            return rows

        def shape_clauses(c, n, rows, lo):
            clauses = real_shape_clauses(c, n, rows, lo)
            if n == 2:
                clauses[7 - lo] = ShapeClause.PARITY
            return clauses

        monkeypatch.setattr(suites, "_table", table)
        monkeypatch.setattr(suites, "_shape_clauses", shape_clauses)
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "dimension"]) == 1
        assert capsys.readouterr().out == (
            "[dimension] dimension preserved on basis: 34/36 pass;"
            " first counterexample: n=2, s=5\n"
            "RESULT: FAIL\n"
        )
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "shape"]) == 1
        assert capsys.readouterr().out == (
            "[shape] alternating shape: 51/54 (n,s) pairs pass;"
            " first: n=2, s=7, clause=parity\n"
            "RESULT: FAIL\n"
        )
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "periodicity"]) == 1
        assert capsys.readouterr().out == (
            "[periodicity] exponent period 2p on basis: 34/36 pass;"
            " first counterexample: c=2, s=5\n"
            "RESULT: FAIL\n"
        )
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "symmetry"]) == 1
        assert capsys.readouterr().out == (
            "[symmetry] exponent reflection at 2p on basis: 17/18 pass;"
            " first counterexample: j=2, s=5\n"
            "RESULT: FAIL\n"
        )
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "reciprocity"]) == 1
        assert capsys.readouterr().out == (
            "[reciprocity] complement sum equals the regular module (even n): 22/26 pass;"
            " first counterexample: n=2, m=2, r=4\n"
            "RESULT: FAIL\n"
        )
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "all"]) == 1
        out = capsys.readouterr().out.splitlines()
        sweeps = [line for line in out if not line.startswith(("[homomorphism]", "[heller]",
                                                               "[gow-laffey]", "[oracle]"))]
        assert sweeps == [
            "[dimension] dimension preserved on basis: 34/36 pass;"
            " first counterexample: n=2, s=5",
            "[periodicity] exponent period 2p on basis: 34/36 pass;"
            " first counterexample: c=2, s=5",
            "[symmetry] exponent reflection at 2p on basis: 17/18 pass;"
            " first counterexample: j=2, s=5",
            "[reciprocity] complement sum equals the regular module (even n): 22/26 pass;"
            " first counterexample: n=2, m=2, r=4",
            "[shape] alternating shape: 51/54 (n,s) pairs pass;"
            " first: n=2, s=7, clause=parity",
            "RESULT: FAIL",
        ]

    def test_wide_multiplicity_is_named_by_shape_and_stops_table(self, monkeypatch, capsys):
        # a kernel that doubles the leading term of V_5 at f = 2: the walk
        # reads the kernel's rows itself, so the shape sweep names the
        # coefficient clause, while `table` takes them through adams._keyed
        # and ends as an internal error without printing a row
        real_table = suites._table

        def table(c, f):
            rows = real_table(c, f)
            if f == 2:
                rows.coefs[rows.starts[5] - 1] *= 2
            return rows

        monkeypatch.setattr(suites, "_table", table)
        monkeypatch.setattr(importlib.import_module("greenring.adams"), "_table", table)
        clear_cache(RingContext(3, 2))
        assert main(["verify", "--p", "3", "--nu", "2", "--suite", "shape"]) == 1
        assert capsys.readouterr().out == (
            "[shape] alternating shape: 51/54 (n,s) pairs pass;"
            " first: n=2, s=5, clause=coefficients\n"
            "RESULT: FAIL\n"
        )
        assert main(["table", "--p", "3", "--nu", "2", "--n", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: internal consistency failure")

    @pytest.mark.parametrize(
        "p, nu, digest",
        [
            (2, 1, "dd803b98c47e4034822e700a9d7aa6d02d49a14aad988ccdb25e76622afd356b"),
            (3, 2, "2e4a39e4e3d20cdd2345bcf619a6da07ecbdcb73fc223ff97272aac111c27514"),
            (2, 4, "7baa60f8f0dce754180386480833238f0fffb6433af5d5ab0235660a3f2e9d07"),
            (5, 2, "7cc7aed4c046ef8b1dd8d4531fc6fb0974068ec6e6ca5dbb0916d8e3db5f8ff4"),
            (3, 3, "6fe2d8a51a58442f94e3826a9cbb433fdefc47e3111c970970cfbb93e644a11b"),
            (7, 2, "21bf4c61090961959f747cffe25e9be7ac10294ddf5c72c314e56180309207a5"),
        ],
    )
    def test_golden_digest(self, p, nu, digest, capsys):
        # SHA-256 of `verify --suite all` stdout as printed when every clause
        # kept its own pass/fail counters; a change to how clauses are run,
        # counted or rendered must not move a single byte
        assert main(["verify", "--p", str(p), "--nu", str(nu), "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, nu, suite, digest",
        [
            (31, 2, "dimension", "c8699b2a60df341d689a71b8b5588c9f62ed24ff2bb04fa76ca20496792d5657"),
            (31, 2, "reciprocity", "30d58aad66843e59ff85083b184d3a6c20499daa9baddcb46b135d71944ccc3e"),
            (31, 2, "shape", "1895ce0ac9812c11c1cbd5a867fc5d864c1702577c6bf1fb314baafb2d930a93"),
            (2, 10, "dimension", "e358cd6548ba0da47f1be81c045032a89b6b0ea1411ebc3047bc6fe132187d75"),
            (2, 10, "shape", "04249e215abc8fd7d6b9a74a4e30e78671cd5c22c3ff3a24465943c4b63846fa"),
            (31, 2, "periodicity", "0653f4a1cfbd178c1e6e4d583070cb443f9710181612bf215260e2670a5e1d30"),
            (31, 2, "symmetry", "10c3a5e8e5867d70a3d7c11e1aefdae552cf83e7cabd7b4ead95d286c5af0a19"),
            (2, 10, "periodicity", "1ff58c5efa1620e4f66fce3b83b838c3213fbaa318ea4edc69e0f447b6472bcf"),
            (2, 10, "symmetry", "98c94ed9c50e76e7d5e8752a6733de70724a01eb8bf2d4517a0688c3a78f6582"),
        ],
    )
    def test_exponent_sweep_golden_digest(self, p, nu, suite, digest, capsys):
        # SHA-256 of the stdout of the exponent sweeps as printed when they
        # ran value by value through the memo, before they read one table
        # per fold class; periodicity and symmetry as printed when they
        # compared two runs of the recursion at raw exponents
        assert main(["verify", "--p", str(p), "--nu", str(nu), "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestVerifyAllContexts:
    # the four reference contexts must pass every applicable suite; run
    # in-process so session-level caches are shared with other tests
    @pytest.mark.parametrize("p,nu", [(2, 4), (3, 3), (5, 2), (7, 2)])
    def test_verify_all_exits_zero(self, p, nu, capsys):
        assert main(["verify", "--p", str(p), "--nu", str(nu), "--suite", "all"]) == 0
        assert capsys.readouterr().out.strip().endswith("RESULT: PASS")


class TestParserReuse:
    # main builds its parser once per process and reuses it; whatever the
    # earlier calls did, a call must print the bytes and return the exit code
    # that a freshly built parser gives
    INVOCATIONS = [
        (0, ["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "23"]),
        (0, ["mul", "--p", "3", "--nu", "2", "--a", "V5-V3", "--b", "2V2", "--format", "json"]),
        (0, ["lambda", "--p", "5", "--nu", "2", "--n", "2", "--s", "3"]),
        (0, ["sym", "--p", "5", "--nu", "2", "--n", "2", "--element", "V3+V1"]),
        (0, ["table", "--p", "3", "--nu", "2", "--n", "2", "--format", "json"]),
        (0, ["verify", "--p", "3", "--nu", "2", "--suite", "shape"]),
        (0, ["--help"]),
        (0, ["psi", "--help"]),
        # argparse errors
        (2, []),
        (2, ["psi", "--p", "7", "--nu", "2", "--s", "23"]),
        (2, ["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "3", "--element", "V3"]),
        (2, ["mul", "--p", "3", "--nu", "2", "--a", "V2", "--b", "V2", "--format", "xml"]),
        (2, ["table", "--p", "3", "--nu", "1", "--n", "2", "--format", "text"]),
        (2, ["psi", "--p", "7", "--nu", "2", "--n", "four", "--s", "3"]),
        # validation errors
        (2, ["psi", "--p", "5", "--nu", "1", "--n", "5", "--s", "2"]),
        (2, ["psi", "--p", "6", "--nu", "1", "--n", "1", "--s", "2"]),
        (2, ["psi", "--p", "3", "--nu", "1", "--n", "2", "--s", "4"]),
        (2, ["lambda", "--p", "5", "--nu", "2", "--n", "5", "--s", "3"]),
        (2, ["mul", "--p", "3", "--nu", "2", "--a", "V\u0661", "--b", "V1"]),
        (2, ["verify", "--p", "2", "--nu", "2", "--suite", "gow-laffey"]),
    ]

    def run_all(self, capsys, fresh):
        results = []
        for _, argv in self.INVOCATIONS:
            if fresh:
                _build_parser.cache_clear()
            code = main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    def test_reused_parser_matches_fresh_one(self, capsys):
        fresh = self.run_all(capsys, fresh=True)
        _build_parser.cache_clear()
        first = self.run_all(capsys, fresh=False)
        second = self.run_all(capsys, fresh=False)
        assert _build_parser.cache_info().misses == 1
        assert first == fresh
        assert second == fresh
        assert [code for code, _, _ in fresh] == [code for code, _ in self.INVOCATIONS]
        for (code, argv), (_, out, err) in zip(self.INVOCATIONS, fresh):
            if code == 0:
                assert out and not err, argv
            else:
                assert err and not out, argv


def parse_args_then_dispatch(argv):
    """One CLI call as main made it when every call ran the top-level
    parse_args, the parser's own route for each accept, reject and usage."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return _dispatch(args)


TOP_USAGE = "usage: greenring [-h] {psi,mul,lambda,sym,table,verify} ...\n"
PSI = ["psi", "--p", "7", "--nu", "2", "--n", "3"]
COMMAND_CALLS = [
    [*PSI, "--s", "5"],
    ["mul", "--p", "7", "--nu", "2", "--a", "V5-V3", "--b", "2V4", "--format", "json"],
    ["lambda", "--p", "7", "--nu", "2", "--n", "3", "--s", "10"],
    ["sym", "--p", "7", "--nu", "2", "--n", "3", "--element", "V10+V2"],
    ["table", "--p", "3", "--nu", "2", "--n", "2", "--format", "json"],
    ["verify", "--p", "3", "--nu", "2", "--suite", "shape"],
]


class TestDispatch:
    # main hands argv straight to its command's subparser; every call must
    # print the bytes and return the exit code of the top-level parse_args
    @pytest.mark.parametrize("argv", [
        *COMMAND_CALLS,
        [*PSI, "--s", "5", "--bogus"],
        [*PSI, "--s", "5", "extra"],
        PSI,
        [*PSI, "--s", "5", "--element", "V3"],
        [*PSI, "--s", "5", "--format", "xml"],
        ["psi", "-h"],
        ["--help"],
        ["--he"],
        ["nope", "--p", "7"],
        [],
        [*PSI, "--s", "5", "--form", "json"],
        [*PSI, "--s=5", "--"],
    ], ids=[
        "psi", "mul", "lambda", "sym", "table", "verify", "bogus-option", "extra-positional",
        "no-input", "both-inputs", "format-xml", "psi-help", "help", "help-abbrev",
        "unknown-command", "empty", "format-abbrev", "double-dash",
    ])
    def test_matches_top_level_parse(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        want = parse_args_then_dispatch(list(argv)), *capsys.readouterr()
        got = main(list(argv)), *capsys.readouterr()
        assert got == want
        if argv[-1:] in (["--bogus"], ["extra"], ["--"]):
            # leftovers are refused by the top-level parser, under its usage
            assert got[0] == 2 and not got[1]
            assert got[2].startswith(TOP_USAGE)
            assert got[2].endswith(f"greenring: error: unrecognized arguments: {argv[-1]}\n")

    def test_command_call_skips_the_top_level_parse(self, capsys, monkeypatch):
        parser = _build_parser()
        calls = []
        top = parser.parse_known_args
        monkeypatch.setattr(parser, "parse_known_args", lambda *a: calls.append(a) or top(*a))
        for argv in COMMAND_CALLS:
            assert main(list(argv)) == 0, argv
        assert calls == []
        assert main(["--help"]) == 0
        assert len(calls) == 1
        capsys.readouterr()


class TestDeterminism:
    def test_table_bytes_identical_across_processes(self):
        args = ["table", "--p", "5", "--nu", "2", "--n", "3"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_bytes_identical_across_processes(self):
        args = ["verify", "--p", "3", "--nu", "3", "--suite", "shape"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0 and out1 == out2

    def test_psi_bytes_identical_across_processes(self):
        args = ["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "23", "--format", "json"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0 and out1 == out2

    def test_entry_point_exit_code(self):
        code, out, _ = run_cli(["psi", "--p", "5", "--nu", "1", "--n", "5", "--s", "2"])
        assert code == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_pipe_ends_quietly(self):
        # a reader that stops after one line, as `| head -1` does, ends the
        # process through SIGPIPE, as it ends cat, not as an internal error
        proc = subprocess.Popen(
            [sys.executable, "-m", "greenring", "table", "--p", "31", "--nu", "2", "--n", "11"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"s,dim,expression\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert stderr == b""


HELP = """\
usage: greenring [-h] {psi,mul,lambda,sym,table,verify} ...

Exact Adams operations and tensor powers in the Green ring of a cyclic
p-group.

positional arguments:
  {psi,mul,lambda,sym,table,verify}
    psi                 apply an Adams operation
    mul                 multiply two elements
    lambda              exterior power (degree < p)
    sym                 symmetric power (degree < p)
    table               tabulate an Adams operation over the whole basis
    verify              run an identity sweep

options:
  -h, --help            show this help message and exit
"""

VERIFY_USAGE = """\
usage: greenring verify [-h] --p P --nu NU --suite
                        {dimension,homomorphism,periodicity,symmetry,reciprocity,shape,heller,gow-laffey,oracle,all}
"""

VERIFY_HELP = VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --p P                 prime p
  --nu NU               exponent nu of the group order p^nu
  --suite {dimension,homomorphism,periodicity,symmetry,reciprocity,shape,heller,gow-laffey,oracle,all}
"""

BAD_SUITE = VERIFY_USAGE + (
    "greenring verify: error: argument --suite: invalid choice: 'nope' (choose from"
    " 'dimension', 'homomorphism', 'periodicity', 'symmetry', 'reciprocity', 'shape',"
    " 'heller', 'gow-laffey', 'oracle', 'all')\n"
)

# run in a fresh interpreter: the other tests import greenring.suites
IMPORT_CONTRACT = """
import sys
import greenring
import greenring.cli
from greenring.cli import main

for argv in (
    ["psi", "--p", "7", "--nu", "2", "--n", "3", "--s", "5"],
    ["mul", "--p", "7", "--nu", "2", "--a", "V3", "--b", "V5"],
    ["lambda", "--p", "7", "--nu", "2", "--n", "2", "--s", "5"],
    ["sym", "--p", "7", "--nu", "2", "--n", "2", "--s", "5"],
    ["table", "--p", "7", "--nu", "2", "--n", "3", "--format", "json"],
):
    assert main(argv) == 0, argv
assert "greenring.suites" not in sys.modules
assert main(["verify", "--p", "3", "--nu", "2", "--suite", "shape"]) == 0
assert "greenring.suites" in sys.modules
"""


class TestImportContract:
    # psi, mul, lambda, sym and table never compile the verify suites; the
    # CLI reads the suite names from its own tuple, pinned to the suites' one
    def test_only_verify_imports_the_suites(self):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CONTRACT], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("RESULT: PASS")

    def test_suite_choices_match_the_suites(self):
        sub = _build_parser()._subparsers._group_actions[0].choices["verify"]
        (action,) = [a for a in sub._actions if a.dest == "suite"]
        assert tuple(action.choices) == suites.SUITE_NAMES

    @pytest.mark.parametrize("args, code, stream, text", [
        (["--help"], 0, "out", HELP),
        (["verify", "--help"], 0, "out", VERIFY_HELP),
        (["verify", "--p", "3", "--nu", "2", "--suite", "nope"], 2, "err", BAD_SUITE),
    ], ids=["help", "verify-help", "bad-suite"])
    def test_usage_text_pinned(self, args, code, stream, text):
        # argparse wraps to the terminal width, which COLUMNS fixes
        got_code, out, err = run_cli(args, env={**os.environ, "COLUMNS": "80"})
        assert got_code == code
        assert (out if stream == "out" else err) == text
