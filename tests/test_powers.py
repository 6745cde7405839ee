import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenring import (
    GreenElement,
    GreenRingError,
    IndexRangeError,
    RingContext,
    adams_basis,
    adams_from_exterior_sequence,
    basis_element,
    exterior_power,
    exterior_sequence,
    gow_laffey_check,
    multiply,
    one,
    sym_decomposition,
    symmetric_power,
    symmetric_sequence,
    wedge_decomposition,
    zero,
)

CTX5 = RingContext(5, 2)
CTX3 = RingContext(3, 2)


def elements(ctx, lo=-2, hi=2):
    return st.lists(
        st.integers(lo, hi), min_size=ctx.order, max_size=ctx.order
    ).map(lambda cs: GreenElement(ctx, cs))


class TestExteriorPower:
    def test_degree_one_is_identity(self):
        w = basis_element(CTX5, 7) - basis_element(CTX5, 2)
        assert exterior_power(CTX5, 1, w) == w

    def test_square_of_v2(self):
        assert exterior_power(CTX5, 2, basis_element(CTX5, 2)) == one(CTX5)

    def test_square_of_v3(self):
        assert exterior_power(CTX5, 2, basis_element(CTX5, 3)) == basis_element(CTX5, 3)

    def test_degree_bounds(self):
        with pytest.raises(IndexRangeError):
            exterior_power(CTX5, 5, basis_element(CTX5, 2))
        with pytest.raises(IndexRangeError):
            exterior_power(CTX5, 0, basis_element(CTX5, 2))

    @pytest.mark.parametrize("power", [exterior_power, symmetric_power])
    @pytest.mark.parametrize("n", [True, 2.0, 1.5])
    def test_non_integer_degree_rejected(self, power, n):
        # exterior_power(ctx, True, V3) was V3
        with pytest.raises(IndexRangeError, match="is not an integer"):
            power(CTX5, n, basis_element(CTX5, 3))

    def test_numpy_degree_accepted(self):
        w = basis_element(CTX5, 3)
        assert exterior_power(CTX5, np.int64(2), w) == exterior_power(CTX5, 2, w)

    def test_sequence_starts_at_identity(self):
        seq = exterior_sequence(CTX5, 3, basis_element(CTX5, 4))
        assert seq.values[0] == one(CTX5)
        assert seq.kind == "exterior"
        assert len(seq.values) == 4


class TestSymmetricPower:
    def test_degree_one_is_identity(self):
        w = 2 * basis_element(CTX5, 3)
        assert symmetric_power(CTX5, 1, w) == w

    def test_square_of_v2(self):
        assert symmetric_power(CTX5, 2, basis_element(CTX5, 2)) == basis_element(CTX5, 3)

    def test_square_of_v3(self):
        got = symmetric_power(CTX5, 2, basis_element(CTX5, 3))
        assert got == basis_element(CTX5, 5) + one(CTX5)

    def test_of_zero(self):
        assert symmetric_power(CTX5, 2, zero(CTX5)).is_zero()


class TestClassicalIdentity:
    @given(elements(CTX3))
    def test_square_decomposition(self, w):
        # S2(W) + L2(W) = W * W for every element
        lhs = symmetric_power(CTX3, 2, w) + exterior_power(CTX3, 2, w)
        assert lhs == multiply(w, w)

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_exterior_series_additivity(self, a, b):
        va, vb = basis_element(CTX3, a), basis_element(CTX3, b)
        seq_a = exterior_sequence(CTX3, 2, va)
        seq_b = exterior_sequence(CTX3, 2, vb)
        total = exterior_power(CTX3, 2, va + vb)
        convolved = zero(CTX3)
        for i in range(3):
            convolved = convolved + multiply(seq_a.values[i], seq_b.values[2 - i])
        assert total == convolved


class TestOracleAgreement:
    def test_exterior_matches_matrix_route(self):
        import math

        for r in range(1, CTX5.order + 1):
            for n in range(1, min(r, CTX5.p - 1) + 1):
                if math.comb(r, n) > 400:
                    continue
                newton = exterior_power(CTX5, n, basis_element(CTX5, r))
                oracle = wedge_decomposition(CTX5, n, r).to_element()
                assert newton == oracle, (r, n)

    def test_symmetric_matches_matrix_route(self):
        import math

        for r in range(1, CTX5.order + 1):
            for n in range(1, CTX5.p - 1 + 1):
                if math.comb(r + n - 1, n) > 400:
                    continue
                newton = symmetric_power(CTX5, n, basis_element(CTX5, r))
                oracle = sym_decomposition(CTX5, n, r).to_element()
                assert newton == oracle, (r, n)

    def test_adams_recovered_from_exterior_sequences(self):
        # independent route: matrix exterior powers, inverted through the
        # Newton recurrence, must reproduce the level recursion
        for r in (3, 4, 6, 9):
            n_top = min(r, CTX5.p - 1)
            lams = [one(CTX5)] + [
                wedge_decomposition(CTX5, i, r).to_element() for i in range(1, n_top + 1)
            ]
            recovered = adams_from_exterior_sequence(CTX5, lams)
            for i, value in enumerate(recovered, start=1):
                assert value == adams_basis(CTX5, i, r), (r, i)


def gaussian_binomial(m, k, p):
    """[m choose k]_q in Z[q]/(q^p - 1), the coefficients of q^0..q^(p-1), by
    q-Pascal: [i choose j] = [i-1 choose j-1] + q^j [i-1 choose j]."""
    rows = [[1] + [0] * (p - 1)] + [[0] * p for _ in range(k)]
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            below, same, shift = rows[j - 1], rows[j], j % p
            rows[j] = [below[t] + same[t - shift] for t in range(p)]
    return rows[k]


def af_power(ctx, n, r, exterior):
    """Lambda^n(V_r) or S^n(V_r) at nu = 1 by the closed form of Almkvist and
    Fossum: the fold mod z^(2p) - 1 of (z - 1/z) z^(-shift) [m choose n]_(z^2)
    carries the multiplicity of V_s, 0 < s < p, at z^s; that of V_p comes from
    the dimension C(m, n)."""
    p = ctx.p
    m, shift = (r, n * (r - n)) if exterior else (r + n - 1, n * (r - 1))
    folded = [0] * (2 * p)
    for k, c in enumerate(gaussian_binomial(m, n, p)):
        folded[(2 * k + 1 - shift) % (2 * p)] += c
        folded[(2 * k - 1 - shift) % (2 * p)] -= c
    coeffs = folded[1:p]
    top, rest = divmod(math.comb(m, n) - sum(s * c for s, c in enumerate(coeffs, 1)), p)
    assert rest == 0
    return GreenElement(ctx, [*coeffs, top])


def newton_power(ctx, n, r, exterior):
    power = exterior_power if exterior else symmetric_power
    return power(ctx, n, basis_element(ctx, r))


class TestAlmkvistFossum:
    # at nu = 1 the powers of V_r have a closed form independent of the
    # Newton recurrence, and it reaches past the oracle's dimension cap
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_power_of_every_module(self, p):
        ctx = RingContext(p, 1)
        for r in range(1, p + 1):
            for n in range(1, p):
                for exterior in (True, False):
                    assert newton_power(ctx, n, r, exterior) == af_power(ctx, n, r, exterior), \
                        (p, r, n, exterior)

    def test_sample_at_31(self):
        ctx = RingContext(31, 1)
        cases = [(r, n, e) for r in range(1, 32) for n in range(1, 31) for e in (True, False)]
        for r, n, exterior in random.Random(31).sample(cases, 60):
            assert newton_power(ctx, n, r, exterior) == af_power(ctx, n, r, exterior), \
                (r, n, exterior)

    @pytest.mark.parametrize("n, r", [(3, 500), (5, 900)])
    def test_exterior_at_the_order_cap(self, n, r):
        ctx = RingContext(1021, 1)
        assert newton_power(ctx, n, r, True) == af_power(ctx, n, r, True)


class TestGowLaffey:
    def test_single_instance(self):
        verdict = gow_laffey_check(CTX5, 1, 2)
        assert verdict.exterior_ok and verdict.symmetric_ok and verdict.ok

    def test_regular_edge(self):
        # r = p^m: the symmetric term on the complement vanishes
        q = 5
        got = exterior_power(CTX5, 2, basis_element(CTX5, q))
        assert got == ((q - 1) // 2) * basis_element(CTX5, q)
        assert gow_laffey_check(CTX5, 1, q).ok

    def test_exhaustive_small_context(self):
        for m in range(1, CTX3.nu + 1):
            for r in range(1, CTX3.p**m + 1):
                assert gow_laffey_check(CTX3, m, r).ok, (m, r)

    def test_requires_odd_p(self):
        with pytest.raises(GreenRingError):
            gow_laffey_check(RingContext(2, 2), 1, 1)

    def test_range_checks(self):
        with pytest.raises(IndexRangeError):
            gow_laffey_check(CTX5, 3, 1)
        with pytest.raises(IndexRangeError):
            gow_laffey_check(CTX5, 1, 6)

    @pytest.mark.parametrize("m, r", [(True, 2), (1.0, 2), (1, 2.0), (1, True), ("1", 2)])
    def test_rejects_non_integer(self, m, r):
        # gow_laffey_check(ctx, True, 2) checked level 1
        with pytest.raises(IndexRangeError, match="is not an integer"):
            gow_laffey_check(CTX5, m, r)
        assert gow_laffey_check(CTX5, np.int64(1), np.int32(2)).ok
