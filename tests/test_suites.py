import pytest

from greenring import GreenElement, GreenRingError, RingContext, basis_element, format_element
from greenring.adams import _CACHE, adams_basis, clear_cache
from greenring import suites
from greenring.suites import SUITE_NAMES, NotApplicableError, run_suite


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
    # the dimension, reciprocity and shape sweeps read one table per fold
    # class from the table kernel, so they neither fill the Adams memo nor
    # replace what it holds
    SWEEPS = ("dimension", "reciprocity", "shape")

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
