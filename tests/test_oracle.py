import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenring import (
    ContextMismatchError,
    GreenElement,
    IndexRangeError,
    InvalidModuleError,
    JordanModule,
    OracleCapacityError,
    RingContext,
    SettingError,
    basis_element,
    decompose,
    dickson_second,
    dim,
    heller,
    congruent_mod_regular,
    multiply,
    one,
    pair_product,
    realize,
    ring_generator,
    sym,
    sym_decomposition,
    tensor,
    wedge,
    wedge_decomposition,
    zero,
)
from greenring import gfp, oracle
from greenring.core import basis_product

CTX3 = RingContext(3, 2)
CTX5 = RingContext(5, 2)
CTX2 = RingContext(2, 2)


def small_elements(ctx):
    return st.lists(
        st.integers(-2, 2), min_size=ctx.order, max_size=ctx.order
    ).map(lambda cs: GreenElement(ctx, cs))


class TestRealize:
    def test_one_dim_identity(self):
        assert np.array_equal(realize(CTX3, 1), np.eye(1, dtype=np.int64))

    def test_order_two(self):
        ctx = RingContext(2, 1)
        j = realize(ctx, 2)
        assert np.array_equal(j, [[1, 1], [0, 1]])
        assert np.array_equal((j @ j) % 2, np.eye(2, dtype=np.int64))

    def test_regular_block_nilpotency(self):
        q = CTX3.order
        n = (realize(CTX3, q) - np.eye(q, dtype=np.int64)) % 3
        power = np.eye(q, dtype=np.int64)
        for _ in range(q - 1):
            power = (power @ n) % 3
        assert power.any()
        assert not ((power @ n) % 3).any()

    def test_range(self):
        with pytest.raises(IndexRangeError):
            realize(CTX3, 0)
        with pytest.raises(IndexRangeError):
            realize(CTX3, 10)


class TestDecompose:
    def test_single_block(self):
        rep = decompose(CTX3, realize(CTX3, 3))
        assert rep.multiplicities == ((3, 1),)

    def test_round_trip_all_blocks(self):
        for r in range(1, CTX3.order + 1):
            rep = decompose(CTX3, realize(CTX3, r))
            assert rep.multiplicities == ((r, 1),)

    def test_tensor_of_two_regulars_gf2(self):
        ctx = RingContext(2, 1)
        rep = decompose(ctx, tensor(ctx, realize(ctx, 2), realize(ctx, 2)))
        assert rep.multiplicities == ((2, 2),)

    def test_mixed_tensor_gf5(self):
        rep = decompose(CTX5, tensor(CTX5, realize(CTX5, 2), realize(CTX5, 3)))
        assert rep.multiplicities == ((2, 1), (4, 1))

    def test_reconstruction_invariant(self):
        for a, b in [(2, 5), (3, 7), (4, 4)]:
            g = tensor(CTX3, realize(CTX3, a), realize(CTX3, b))
            rep = decompose(CTX3, g)
            assert sum(k * m for k, m in rep.multiplicities) == a * b

    def test_rank_profile_reported(self):
        rep = decompose(CTX3, realize(CTX3, 3))
        assert rep.rank_profile == (3, 2, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_rejects_non_unipotent(self):
        with pytest.raises(InvalidModuleError):
            decompose(CTX3, np.array([[2]], dtype=np.int64))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidModuleError):
            decompose(CTX3, np.zeros((2, 3), dtype=np.int64))

    @pytest.mark.parametrize(
        "g",
        [[[1.5]], realize(CTX3, 2) + 0.2, [["1"]], [[True]]],
        ids=["float", "float-array", "str", "bool"],
    )
    def test_rejects_non_integer_entries(self, g):
        # no coercion: 1.5 would truncate to V1, J_2 + 0.2 to V2
        with pytest.raises(InvalidModuleError):
            decompose(CTX3, g)

    def test_accepts_integer_lists(self):
        assert decompose(CTX3, [[1, 1], [0, 1]]).multiplicities == ((2, 1),)
        assert decompose(CTX3, np.eye(2, dtype=np.int32)).multiplicities == ((1, 2),)

    def test_block_diagonal_multiset(self):
        mod = JordanModule(CTX3, (2, 3, 3, 9))
        rep = decompose(CTX3, mod.to_matrix())
        assert rep.to_jordan_module() == mod
        assert rep.to_element() == mod.to_element()

    def test_serialization_carries_profile(self):
        rep = decompose(CTX3, realize(CTX3, 2))
        data = rep.to_dict()
        assert data["coeffs"] == {"2": 1}
        assert data["rank_profile"] == [2, 1, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_convention_independent(self):
        # transposes and conjugates decompose identically
        g = tensor(CTX3, realize(CTX3, 2), realize(CTX3, 4))
        base = decompose(CTX3, g)
        assert decompose(CTX3, g.T.copy()).multiplicities == base.multiplicities
        for i, j, v in ((0, 3, 2), (5, 1, 1)):
            chg = np.eye(8, dtype=np.int64)
            chg[i, j] = v
            inv = np.eye(8, dtype=np.int64)
            inv[i, j] = -v % 3
            g = (chg @ g @ inv) % 3
        assert decompose(CTX3, g).multiplicities == base.multiplicities
        assert decompose(CTX3, g).rank_profile == base.rank_profile


class TestInducedPowers:
    def test_wedge_top_of_two(self):
        rep = decompose(CTX5, wedge(CTX5, 2, realize(CTX5, 2)))
        assert rep.multiplicities == ((1, 1),)

    def test_sym_square_of_three(self):
        rep = decompose(CTX5, sym(CTX5, 2, realize(CTX5, 3)))
        assert rep.multiplicities == ((1, 1), (5, 1))

    def test_wedge_square_of_three(self):
        rep = decompose(CTX5, wedge(CTX5, 2, realize(CTX5, 3)))
        assert rep.multiplicities == ((3, 1),)

    def test_wedge_degree_bounds(self):
        with pytest.raises(IndexRangeError):
            wedge(CTX5, 3, realize(CTX5, 2))

    def test_wedge_zero_degree(self):
        assert decompose(CTX5, wedge(CTX5, 0, realize(CTX5, 4))).multiplicities == ((1, 1),)

    @pytest.mark.parametrize("raw", ["abc", "-5", "0"])
    def test_capacity_cap_rejects_non_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("GREENRING_ORACLE_CAP", raw)
        with pytest.raises(SettingError):
            tensor(CTX5, realize(CTX5, 2), realize(CTX5, 2))

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("GREENRING_ORACLE_CAP", "5")
        with pytest.raises(OracleCapacityError):
            wedge(CTX5, 2, realize(CTX5, 5))
        with pytest.raises(OracleCapacityError):
            tensor(CTX5, realize(CTX5, 3), realize(CTX5, 3))

    def test_cached_decompositions_match_direct(self):
        direct = decompose(CTX5, sym(CTX5, 3, realize(CTX5, 4)))
        assert sym_decomposition(CTX5, 3, 4).multiplicities == direct.multiplicities
        direct = decompose(CTX5, wedge(CTX5, 2, realize(CTX5, 4)))
        assert wedge_decomposition(CTX5, 2, 4).multiplicities == direct.multiplicities

    def test_wedge_degree_above_dimension_is_zero_module(self):
        rep = wedge_decomposition(CTX5, 2, 1)
        assert rep.multiplicities == ()
        assert rep.to_element().is_zero()
        assert set(rep.rank_profile) == {0}

    def test_split_route_agrees_across_contexts(self, ctx33, ctx72, monkeypatch):
        # a square at odd p always takes the chain-ring split, never a matrix;
        # the literal wedge/sym matrices are the independent check
        monkeypatch.setattr(oracle, "_POWER_CACHE", {})
        monkeypatch.setattr(oracle, "decompose", _route_not_taken)
        cases = [(ctx33, (14, 20, 27)), (ctx72, (16, 22)), (CTX5, (17, 25))]
        cases += [(ctx, range(2, 14)) for ctx in (ctx33, CTX5, ctx72)]
        for ctx, rs in cases:
            for r in rs:
                for power, build in ((wedge_decomposition, wedge), (sym_decomposition, sym)):
                    split = power(ctx, 2, r)
                    literal = decompose(ctx, build(ctx, 2, realize(ctx, r)))
                    assert split.multiplicities == literal.multiplicities, (ctx.p, r)
                    assert split.rank_profile == literal.rank_profile, (ctx.p, r)

    def test_cap_applies_to_requested_half(self, monkeypatch):
        # the split caches both halves; the cached sibling still obeys the cap
        monkeypatch.setattr(oracle, "_POWER_CACHE", {})
        monkeypatch.setenv("GREENRING_ORACLE_CAP", "15")
        assert dim(wedge_decomposition(CTX5, 2, 6).to_element()) == 15
        with pytest.raises(OracleCapacityError):
            sym_decomposition(CTX5, 2, 6)

    def test_p2_square_takes_matrix_route(self, ctx24, monkeypatch):
        monkeypatch.setattr(oracle, "_POWER_CACHE", {})
        monkeypatch.setattr(gfp, "square_pair_split_profiles", _route_not_taken)
        for r in (2, 5, 9, 16):
            for power, build in ((wedge_decomposition, wedge), (sym_decomposition, sym)):
                literal = decompose(ctx24, build(ctx24, 2, realize(ctx24, r)))
                assert power(ctx24, 2, r) == literal, r


def _route_not_taken(*args):
    raise AssertionError("wrong route for this power decomposition")


class TestPairFastPath:
    def test_exhaustive_small_context(self):
        ctx = RingContext(3, 2)
        for a, b in itertools.combinations_with_replacement(range(1, 10), 2):
            lit = decompose(ctx, tensor(ctx, realize(ctx, a), realize(ctx, b)))
            fast = pair_product(ctx, a, b)
            assert lit.multiplicities == fast.multiplicities, (a, b)
            assert lit.rank_profile == fast.rank_profile, (a, b)

    def test_exhaustive_p2(self):
        ctx = RingContext(2, 3)
        for a, b in itertools.combinations_with_replacement(range(1, 9), 2):
            lit = decompose(ctx, tensor(ctx, realize(ctx, a), realize(ctx, b)))
            fast = pair_product(ctx, a, b)
            assert lit.multiplicities == fast.multiplicities, (a, b)

    def test_sampled_large_context(self, ctx72):
        for a, b in [(7, 12), (14, 21), (3, 49)]:
            lit = decompose(ctx72, tensor(ctx72, realize(ctx72, a), realize(ctx72, b)))
            fast = pair_product(ctx72, a, b)
            assert lit.multiplicities == fast.multiplicities
            assert lit.rank_profile == fast.rank_profile


class TestMultiply:
    def test_v2_squared(self):
        v2 = basis_element(CTX3, 2)
        assert multiply(v2, v2) == basis_element(CTX3, 3) + basis_element(CTX3, 1)

    def test_regular_absorbs(self):
        assert multiply(basis_element(CTX3, 3), basis_element(CTX3, 2)) == 2 * basis_element(CTX3, 3)

    def test_almost_regular_row(self):
        assert multiply(basis_element(CTX2, 3), basis_element(CTX2, 2)) == basis_element(
            CTX2, 4
        ) + basis_element(CTX2, 2)

    def test_identity(self):
        for r in range(1, CTX3.order + 1):
            assert multiply(one(CTX3), basis_element(CTX3, r)) == basis_element(CTX3, r)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            multiply(basis_element(CTX3, 1), basis_element(CTX5, 1))

    @given(small_elements(CTX3), small_elements(CTX3))
    def test_commutative(self, a, b):
        assert multiply(a, b) == multiply(b, a)

    @given(small_elements(CTX3), small_elements(CTX3), small_elements(CTX3))
    def test_associative(self, a, b, c):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(small_elements(CTX3), small_elements(CTX3))
    def test_dim_multiplicative(self, a, b):
        assert dim(multiply(a, b)) == dim(a) * dim(b)

    def test_generator_ladder(self):
        # X_m V_r = V_{r+p^m} + V_{r-p^m} across the legal range
        for ctx in (CTX3, CTX2, CTX5):
            for m in range(ctx.nu):
                pm = ctx.p**m
                x = ring_generator(ctx, m)
                for r in range(0, (ctx.p - 1) * pm + 1):
                    got = multiply(x, basis_element(ctx, r))
                    want = GreenElement.from_terms(ctx, [(r + pm, 1), (r - pm, 1)])
                    assert got == want, (ctx.p, m, r)

    def test_regular_absorption_all_levels(self):
        for ctx in (CTX3, CTX2):
            for m in range(ctx.nu + 1):
                pm = ctx.p**m
                vq = basis_element(ctx, pm)
                for r in range(1, pm + 1):
                    assert multiply(vq, basis_element(ctx, r)) == r * vq

    def test_almost_regular_products_all_levels(self):
        for ctx in (CTX3, CTX5):
            for m in range(ctx.nu + 1):
                pm = ctx.p**m
                if pm == 1:
                    continue
                va = basis_element(ctx, pm - 1)
                for r in range(1, pm + 1):
                    want = GreenElement.from_terms(ctx, {pm: r - 1, pm - r: 1})
                    assert multiply(va, basis_element(ctx, r)) == want

    def test_almost_regular_square(self):
        for ctx in (CTX3, CTX5):
            q = ctx.order
            want = GreenElement.from_terms(ctx, {q: q - 2, 1: 1})
            assert multiply(basis_element(ctx, q - 1), basis_element(ctx, q - 1)) == want

    def test_heller_slides_mod_regular(self):
        m = CTX3.nu
        a = basis_element(CTX3, 5) - 2 * basis_element(CTX3, 2)
        b = basis_element(CTX3, 7) + basis_element(CTX3, 3)
        assert congruent_mod_regular(
            m, heller(m, multiply(a, b)), multiply(heller(m, a), b)
        )

    def test_second_kind_ladder(self):
        # V_{kp^m+r} = f_k(X_m) V_r + f_{k-1}(X_m) V_{p^m-r}
        for ctx in (CTX3, CTX5):
            for m in range(ctx.nu):
                pm = ctx.p**m
                x = ring_generator(ctx, m)
                for k in range(ctx.p):
                    fk = dickson_second(k).evaluate(x, one(ctx), multiply)
                    fk1 = dickson_second(k - 1).evaluate(x, one(ctx), multiply)
                    for r in range(1, pm + 1):
                        lhs = basis_element(ctx, k * pm + r)
                        rhs = multiply(fk, basis_element(ctx, r)) + multiply(
                            fk1, basis_element(ctx, pm - r)
                        )
                        assert lhs == rhs, (ctx.p, m, k, r)

    def test_zero_factor(self):
        assert multiply(zero(CTX3), basis_element(CTX3, 5)).is_zero()

    def test_capacity_cap_on_products(self, monkeypatch):
        # the cap bounds the oracle's matrix routes only; multiply builds no matrix
        monkeypatch.setenv("GREENRING_ORACLE_CAP", "10")
        with pytest.raises(OracleCapacityError):
            pair_product(CTX3, 4, 4)
        with pytest.raises(OracleCapacityError):
            tensor(CTX3, realize(CTX3, 4), realize(CTX3, 4))
        got = multiply(basis_element(CTX3, 4), basis_element(CTX3, 4))
        monkeypatch.delenv("GREENRING_ORACLE_CAP")
        assert got == pair_product(CTX3, 4, 4).to_element()

    @pytest.mark.parametrize("p,nu,sample", [(2, 4, None), (3, 3, None), (5, 2, None), (7, 2, 40)])
    def test_ladder_matches_pair_product(self, p, nu, sample):
        # multiply comes from the ladder; the oracle is the independent check:
        # every pair at small contexts, a seeded sample at (7,2)
        ctx = RingContext(p, nu)
        pairs = list(itertools.combinations_with_replacement(range(1, ctx.order + 1), 2))
        if sample is not None:
            pairs = random.Random(7919).sample(pairs, sample)
        bad = [
            (a, b)
            for a, b in pairs
            if basis_product(p, a, b) != pair_product(ctx, a, b).multiplicities
        ]
        assert bad == []


class TestJordanModule:
    def test_rejects_out_of_range_block(self):
        with pytest.raises(IndexRangeError):
            JordanModule(CTX3, (10,))

    @pytest.mark.parametrize("blocks", [(2.7,), (True,), ("3",), (2.0,)])
    def test_rejects_non_integer_block(self, blocks):
        # int() would turn (2.7, True) into blocks (1, 2)
        with pytest.raises(IndexRangeError):
            JordanModule(CTX3, blocks)

    def test_accepts_numpy_integer_blocks(self):
        mod = JordanModule(CTX3, (np.int64(3), np.int32(1)))
        assert mod.blocks == (1, 3)
        assert all(type(b) is int for b in mod.blocks)

    def test_blocks_sorted_and_dimension(self):
        mod = JordanModule(CTX3, (3, 1, 2))
        assert mod.blocks == (1, 2, 3)
        assert mod.dimension == 6
