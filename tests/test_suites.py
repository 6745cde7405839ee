import random

import numpy as np
import pytest

from greenring import (
    GreenElement,
    GreenRingError,
    RingContext,
    adams,
    basis_element,
    exterior_power,
    format_element,
    multiply,
    symmetric_power,
)
from greenring.adams import _CACHE, adams_basis, clear_cache
from greenring import suites
from greenring.suites import SUITE_NAMES, NotApplicableError, _af_adams, _restricted, run_suite


class TestRunSuite:
    def test_unknown_suite_rejected(self, ctx32):
        with pytest.raises(ValueError):
            run_suite(ctx32, "nonsense")
        with pytest.raises(GreenRingError):
            run_suite(ctx32, "nonsense")

    def test_shape_count_matches_sweep_size(self, ctx33):
        (report,) = run_suite(ctx33, "shape")
        assert report.ok
        assert report.lines == ["alternating shape: 486/486 (n,s) pairs pass"]

    def test_odd_p_suites_rejected_at_two(self):
        ctx = RingContext(2, 2)
        with pytest.raises(NotApplicableError):
            run_suite(ctx, "gow-laffey")
        with pytest.raises(NotApplicableError):
            run_suite(ctx, "reciprocity")

    def test_all_skips_instead_of_failing_at_two(self):
        ctx = RingContext(2, 2)
        reports = run_suite(ctx, "all")
        assert all(r.ok for r in reports)
        skipped = [r for r in reports if any("skipped" in ln for ln in r.lines)]
        assert {r.name for r in skipped} == {"reciprocity", "gow-laffey"}

    def test_all_passes_small_context(self, ctx32):
        reports = run_suite(ctx32, "all")
        assert [r.name for r in reports] == list(SUITE_NAMES[:-1])
        assert all(r.ok for r in reports)

    def test_deterministic_output(self, ctx32):
        first = [tuple(r.lines) for r in run_suite(ctx32, "homomorphism")]
        second = [tuple(r.lines) for r in run_suite(ctx32, "homomorphism")]
        assert first == second


class TestClauseCounting:
    def test_triple_failing_two_checks_counts_once(self, ctx32, monkeypatch):
        # the first random triple of the oracle suite is replaced by one whose
        # left factor multiplies wrongly: it breaks commutativity and the unit
        # law, and is still one failing case out of 25, named once
        planted = GreenElement.from_terms(ctx32, {2: 1, 1: -1})
        drawn = []
        real_random_element = suites._random_element
        real_multiply = suites.multiply

        def random_element(ctx, rng, max_index, terms=3):
            value = real_random_element(ctx, rng, max_index, terms)
            drawn.append(value)
            return planted if len(drawn) == 1 else value

        def multiply(x, y):
            product = real_multiply(x, y)
            return product + basis_element(x.ctx, 1) if x is planted else product

        monkeypatch.setattr(suites, "_random_element", random_element)
        monkeypatch.setattr(suites, "multiply", multiply)
        (report,) = run_suite(ctx32, "oracle")
        assert not report.ok
        label = "commutative, associative, unital on random triples"
        (line,) = [ln for ln in report.lines if ln.startswith(label)]
        b, c = (format_element(v) for v in drawn[1:3])
        assert line == (
            f"{label}: 24/25 pass; first counterexample: a=V2 - V1, b={b}, c={c}"
        )
        # every other clause still passes
        assert sum("first counterexample" in ln for ln in report.lines) == 1


class TestExponentSweepsLeaveTheMemo:
    # the exponent sweeps read one table per fold class from the table
    # kernel, so they neither fill the Adams memo nor replace what it holds
    SWEEPS = ("dimension", "periodicity", "symmetry", "reciprocity", "shape")

    @pytest.mark.parametrize("p, nu", [(7, 2), (3, 3)])
    def test_empty_memo_stays_empty(self, p, nu):
        ctx = RingContext(p, nu)
        clear_cache(ctx)
        for suite in self.SWEEPS:
            (report,) = run_suite(ctx, suite)
            assert report.ok
        assert not _CACHE.get((p, nu))

    @pytest.mark.parametrize("p, nu", [(7, 2), (3, 3)])
    def test_memoized_value_stays_in_place(self, p, nu):
        ctx = RingContext(p, nu)
        clear_cache(ctx)
        kept = adams_basis(ctx, 2, 5)
        before = dict(_CACHE[(p, nu)])
        for suite in self.SWEEPS:
            (report,) = run_suite(ctx, suite)
            assert report.ok
        after = _CACHE[(p, nu)]
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        assert adams_basis(ctx, 2, 5) is kept


class TestOneTablePerFoldClass:
    # every exponent sweep of one run_suite call reads the same table of a
    # fold class, so a run builds each class's table once, however many
    # sweeps and raw exponents meet it
    @pytest.mark.parametrize("p, nu, suite, tables", [
        (7, 2, "all", 6), (3, 3, "all", 2), (2, 5, "all", 1), (7, 2, "shape", 6),
    ])
    def test_tables_built(self, p, nu, suite, tables, monkeypatch):
        built = []
        real_table = suites._table

        def table(ctx, f):
            built.append(f)
            return real_table(ctx, f)

        monkeypatch.setattr(suites, "_table", table)
        assert all(report.ok for report in run_suite(RingContext(p, nu), suite))
        assert sorted(built) == list(range(1, tables + 1))


def restrict(ctx, w):
    """w restricted to the subgroup of order p, an element at (p, 1)."""
    row = np.array([w.coeffs], np.int64)
    return GreenElement(RingContext(ctx.p, 1), _restricted(ctx, row)[0].tolist())


def reference_restrict(ctx, w):
    """V_{am+b} -> b V_{a+1} + (m-b) V_a, m = p^(nu-1), term by term as written."""
    m = ctx.order // ctx.p
    terms = []
    for t, c in w.terms:
        a, b = divmod(t, m)
        terms += [(a + 1, b * c), (a, (m - b) * c)]
    return GreenElement.from_terms(RingContext(ctx.p, 1), terms)


RESTRICTION_CONTEXTS = [(3, 3), (5, 2), (7, 2), (2, 5), (3, 4), (11, 2)]


class TestRestriction:
    # restriction to the subgroup of order p is a ring map commuting with
    # the Adams operations and the exterior and symmetric powers, so each
    # is checked against the same computation at (p, 1)
    @staticmethod
    def seeded(ctx, count):
        rng = random.Random(ctx.order)
        return [suites._random_element(ctx, rng, ctx.order) for _ in range(count)]

    @pytest.mark.parametrize("p, nu", RESTRICTION_CONTEXTS)
    def test_matches_its_definition(self, p, nu):
        ctx = RingContext(p, nu)
        for w in self.seeded(ctx, 20) + [basis_element(ctx, s) for s in range(1, ctx.order + 1)]:
            assert restrict(ctx, w) == reference_restrict(ctx, w), format_element(w)

    @pytest.mark.parametrize("p, nu", RESTRICTION_CONTEXTS)
    def test_products(self, p, nu):
        ctx = RingContext(p, nu)
        xs = self.seeded(ctx, 12)
        for x, y in zip(xs[::2], xs[1::2]):
            assert restrict(ctx, multiply(x, y)) == multiply(restrict(ctx, x), restrict(ctx, y))

    @pytest.mark.parametrize("p, nu", RESTRICTION_CONTEXTS)
    def test_powers_below_p(self, p, nu):
        ctx, low = RingContext(p, nu), RingContext(p, 1)
        for w in self.seeded(ctx, 2):
            for n in range(1, p):
                for power in (exterior_power, symmetric_power):
                    got = restrict(ctx, power(ctx, n, w))
                    assert got == power(low, n, restrict(ctx, w)), (power.__name__, n)

    @pytest.mark.parametrize("p, nu", RESTRICTION_CONTEXTS)
    def test_adams(self, p, nu):
        ctx, low = RingContext(p, nu), RingContext(p, 1)
        for w in self.seeded(ctx, 4):
            for n in range(1, 4 * p):
                if n % p:
                    assert restrict(ctx, adams(ctx, n, w)) == adams(low, n, restrict(ctx, w)), n


class TestClosedForm:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
    def test_matches_the_laurent_polynomial(self, p):
        # (z - 1/z) [r] at z^n mod z^(2p) - 1, term by term, V_p from the dimension
        for n in range(1, 4 * p):
            if n % p == 0:
                continue
            table = _af_adams(p, n)
            assert not table[0].any()
            for r in range(1, p + 1):
                coeff = [0] * (2 * p)
                for i in range(r):
                    e = n * (r - 1 - 2 * i)
                    coeff[(e + 1) % (2 * p)] += 1
                    coeff[(e - 1) % (2 * p)] -= 1
                want = coeff[1:p]
                want.append((r - sum(t * c for t, c in enumerate(want, 1))) // p)
                assert table[r].tolist() == want, (n, r)
