"""Acceptance gate: one test per criterion, each printing a pass line.

Everything here is exact integer equality; the only tolerances are the
stated wall-clock bounds.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from greenring import (
    GreenElement,
    RingContext,
    adams,
    adams_basis,
    adams_from_exterior_sequence,
    basis_element,
    clear_cache,
    dickson_first,
    dickson_second,
    dim,
    exterior_power,
    format_element,
    from_dict,
    gow_laffey_check,
    multiply,
    one,
    pair_product,
    ring_generator,
    shape_check,
    spread,
    sym_decomposition,
    symmetric_power,
    wedge_decomposition,
    zero,
)
from greenring.polynomials import IntPolynomial
from greenring.suites import _af_adams, _restricted, paired_structure_ok

CONTEXTS = [RingContext(2, 4), RingContext(3, 3), RingContext(5, 2), RingContext(7, 2)]
ODD_CONTEXTS = [c for c in CONTEXTS if c.p != 2]

WORKED_23 = (
    "V49 - V47 + V45 - V39 + V37 - V35 + V33 - V31 + V25"
    " - V23 + V19 - V17 + V11 - V9 + V7 - V5 + V3"
)


def valid_exponents(ctx, bound):
    return [n for n in range(1, bound + 1) if n % ctx.p]


def random_element(ctx, rng, max_index, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        r = rng.randint(1, max_index)
        terms[r] = terms.get(r, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return GreenElement.from_terms(ctx, terms)


def test_criterion_01_worked_example():
    ctx = RingContext(7, 2)
    clear_cache(ctx)
    start = time.perf_counter()
    v2 = adams_basis(ctx, 4, 2)
    v5 = adams_basis(ctx, 4, 5)
    v23 = adams_basis(ctx, 4, 23)
    elapsed = time.perf_counter() - start
    assert format_element(v2) == "V5 - V3"
    assert format_element(v5) == "V7 - V5 + V3"
    assert format_element(v23) == WORKED_23
    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"
    print(f"\ncriterion 1 (worked example, {elapsed * 1000:.0f} ms): PASS")


def test_criterion_02_closed_forms():
    checked = 0
    for ctx in CONTEXTS:
        for n in valid_exponents(ctx, 4 * ctx.p):
            for m in range(ctx.nu + 1):
                pm = ctx.p**m
                want = (
                    basis_element(ctx, pm - 1)
                    if n % 2
                    else basis_element(ctx, pm) - one(ctx)
                )
                if pm == 1:
                    want = zero(ctx) if n % 2 else basis_element(ctx, 1) - one(ctx)
                assert adams(ctx, n, basis_element(ctx, pm - 1)) == want, (ctx.p, n, m)
                assert adams_basis(ctx, n, pm) == basis_element(ctx, pm), (ctx.p, n, m)
                checked += 2
    print(f"\ncriterion 2 (closed forms, {checked} cases): PASS")


def test_criterion_03_periodicity_symmetry():
    # psi^(2p+c) and psi^(2p-j) from the folded recursion against the [AF]
    # closed form at the raw exponent, after restriction to the subgroup of
    # order p
    mismatches = 0
    checked = 0
    for ctx in CONTEXTS:
        basis = _restricted(
            ctx, np.array([basis_element(ctx, s).coeffs for s in range(1, ctx.order + 1)], np.int64)
        )
        raw = [2 * ctx.p + c for c in valid_exponents(ctx, 2 * ctx.p)]
        raw += [2 * ctx.p - j for j in range(1, ctx.p)]
        for n in raw:
            want = (basis @ _af_adams(ctx.p, n)[1:]).tolist()
            for s in range(1, ctx.order + 1):
                checked += 1
                row = np.array([adams_basis(ctx, n, s).coeffs], np.int64)
                got = _restricted(ctx, row)[0].tolist()
                if got != want[s - 1]:
                    mismatches += 1
    assert mismatches == 0
    print(f"\ncriterion 3 (periodicity/symmetry, {checked} checks, 0 mismatches): PASS")


def test_criterion_04_ring_map():
    for ctx in CONTEXTS:
        rng = random.Random(97 + ctx.p)
        ns = valid_exponents(ctx, 2 * ctx.p)
        max_index = min(ctx.order, 2 * ctx.p)
        samples = [
            (
                rng.choice(ns),
                random_element(ctx, rng, max_index),
                random_element(ctx, rng, max_index),
            )
            for _ in range(200)
        ]
        for n, a, b in samples:
            assert adams(ctx, n, multiply(a, b)) == multiply(
                adams(ctx, n, a), adams(ctx, n, b)
            ), (ctx.p, n, format_element(a), format_element(b))
        for _ in range(40):
            n, n2 = rng.choice(ns), rng.choice(ns)
            s = rng.randint(1, ctx.order)
            assert adams(ctx, n, adams_basis(ctx, n2, s)) == adams_basis(
                ctx, n * n2, s
            ), (ctx.p, n, n2, s)
    print("\ncriterion 4 (ring map, 200 product pairs + 40 compositions per context): PASS")


def test_criterion_05_complement_reciprocity():
    checked = 0
    for ctx in ODD_CONTEXTS:
        for n in valid_exponents(ctx, 2 * ctx.p):
            if n % 2:
                continue
            for m in range(ctx.nu + 1):
                pm = ctx.p**m
                vq = basis_element(ctx, pm)
                for r in range(1, pm + 1):
                    got = adams_basis(ctx, n, r) + adams(ctx, n, basis_element(ctx, pm - r))
                    assert got == vq, (ctx.p, n, m, r)
                    checked += 1
    print(f"\ncriterion 5 (even-exponent complement reciprocity, {checked} cases): PASS")


def test_criterion_06_shape_laws():
    for ctx in CONTEXTS:
        start = time.perf_counter()
        for n in valid_exponents(ctx, 2 * ctx.p):
            for s in range(1, ctx.order + 1):
                verdict = shape_check(ctx, n, s)
                assert verdict.ok, (ctx.p, n, s, verdict.violated)
            for m in range(ctx.nu + 1):
                for s in range(1, ctx.p**m + 1):
                    assert paired_structure_ok(ctx, n, s, m), (ctx.p, n, s, m)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"shape sweep at p={ctx.p} took {elapsed:.1f}s"
    print("\ncriterion 6 (alternating shape + paired structure, all contexts < 30 s): PASS")


def test_criterion_07_oracle_multiplication():
    for ctx in CONTEXTS:
        p, nu = ctx.p, ctx.nu
        for m in range(nu):
            pm = p**m
            x = ring_generator(ctx, m)
            for r in range(0, (p - 1) * pm + 1):
                want = GreenElement.from_terms(ctx, [(r + pm, 1), (r - pm, 1)])
                assert multiply(x, basis_element(ctx, r)) == want, (p, m, r)
        for m in range(nu + 1):
            pm = p**m
            vq = basis_element(ctx, pm)
            for r in range(1, pm + 1):
                assert multiply(vq, basis_element(ctx, r)) == r * vq, (p, m, r)
        for m in range(nu + 1):
            pm = p**m
            if pm == 1:
                continue
            va = basis_element(ctx, pm - 1)
            for r in range(1, pm + 1):
                want = GreenElement.from_terms(ctx, {pm: r - 1, pm - r: 1})
                assert multiply(va, basis_element(ctx, r)) == want, (p, m, r)
            square = GreenElement.from_terms(ctx, {pm: pm - 2, 1: 1})
            assert multiply(va, va) == square, (p, m)

    triple_counts = {2: 40, 3: 30, 5: 20, 7: 15}
    total = 0
    for ctx in CONTEXTS:
        rng = random.Random(1031 + ctx.p)
        max_index = min(ctx.order, 2 * ctx.p)
        for _ in range(triple_counts[ctx.p]):
            a = random_element(ctx, rng, max_index, max_terms=2)
            b = random_element(ctx, rng, max_index, max_terms=2)
            c = random_element(ctx, rng, max_index, max_terms=2)
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            total += 1
    assert total >= 100
    print(f"\ncriterion 7 (product table identities + {total} random triples): PASS")


def test_criterion_08_oracle_adams_equivalence():
    checked = 0
    for ctx in CONTEXTS:
        for r in range(1, min(12, ctx.order) + 1):
            top = min(r, ctx.p - 1)
            if top < 1:
                continue
            degrees = [n for n in range(1, top + 1) if math.comb(r, n) <= 2000]
            if not degrees:
                continue
            n_max = max(degrees)
            lams = [one(ctx)] + [
                wedge_decomposition(ctx, i, r).to_element() for i in range(1, n_max + 1)
            ]
            recovered = adams_from_exterior_sequence(ctx, lams)
            for n in degrees:
                assert recovered[n - 1] == adams_basis(ctx, n, r), (ctx.p, r, n)
                checked += 1
    print(f"\ncriterion 8 (matrix-power route matches level recursion, {checked} cases): PASS")


def test_criterion_09_degree_two_reciprocity():
    for ctx in ODD_CONTEXTS:
        for m in range(1, ctx.nu + 1):
            for r in range(1, ctx.p**m + 1):
                verdict = gow_laffey_check(ctx, m, r)
                assert verdict.exterior_ok and verdict.symmetric_ok, (ctx.p, m, r)
        cap_limit = 20000
        for r in range(1, ctx.order + 1):
            if math.comb(r + 1, 2) > cap_limit:
                continue
            assert exterior_power(ctx, 2, basis_element(ctx, r)) == wedge_decomposition(
                ctx, 2, r
            ).to_element(), (ctx.p, r, "exterior")
            assert symmetric_power(ctx, 2, basis_element(ctx, r)) == sym_decomposition(
                ctx, 2, r
            ).to_element(), (ctx.p, r, "symmetric")
    print("\ncriterion 9 (degree-2 reciprocity + oracle agreement, exhaustive): PASS")


def test_criterion_10_generator_ladders():
    for ctx in CONTEXTS:
        p, nu = ctx.p, ctx.nu
        for m in range(nu):
            pm = p**m
            x = ring_generator(ctx, m)
            g_values = [
                dickson_first(i).evaluate(x, one(ctx), multiply) for i in range(p)
            ]
            f_values = [
                dickson_second(k).evaluate(x, one(ctx), multiply) for k in range(-1, p)
            ]
            for i in range(p):
                for r in range(1, pm + 1):
                    got = multiply(g_values[i], basis_element(ctx, r))
                    # offset 0: the ladder formula reads V_r - V_{-r} = 2 V_r,
                    # which is not the (identity) spreading map at 0
                    want = (
                        2 * basis_element(ctx, r)
                        if i == 0
                        else spread(ctx, m, i, basis_element(ctx, r))
                    )
                    assert got == want, (p, m, i, r)
            for k in range(p):
                for r in range(1, pm + 1):
                    lhs = basis_element(ctx, k * pm + r)
                    rhs = multiply(f_values[k + 1], basis_element(ctx, r)) + multiply(
                        f_values[k], basis_element(ctx, pm - r)
                    )
                    assert lhs == rhs, (p, m, k, r)
        for n in range(0, 2 * p + 1):
            acc = IntPolynomial()
            k = n
            while k >= 2:
                acc = acc + dickson_first(k)
                k -= 2
            acc = acc + (dickson_first(1) if n % 2 else IntPolynomial((1,)))
            assert dickson_second(n) == acc, (p, n)
    print("\ncriterion 10 (generator ladder + polynomial family identities): PASS")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "greenring", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_11_determinism_round_trip():
    args = ["table", "--p", "5", "--nu", "2", "--n", "2", "--format", "csv"]
    code1, out1 = _run_cli(args)
    code2, out2 = _run_cli(args)
    assert code1 == code2 == 0 and out1 == out2

    args = ["table", "--p", "3", "--nu", "3", "--n", "4", "--format", "json"]
    code1, out1 = _run_cli(args)
    code2, out2 = _run_cli(args)
    assert code1 == code2 == 0 and out1 == out2
    ctx = RingContext(3, 3)
    data = json.loads(out1)
    for row in data["rows"]:
        element = from_dict(row["element"])
        assert element == adams_basis(ctx, 4, row["s"])
        assert dim(element) == row["dim"] == row["s"]

    code, out = _run_cli(["psi", "--p", "7", "--nu", "2", "--n", "4", "--s", "23", "--format", "json"])
    assert code == 0
    assert from_dict(json.loads(out)) == adams_basis(RingContext(7, 2), 4, 23)
    print("\ncriterion 11 (byte-identical tables, lossless JSON round-trip): PASS")
