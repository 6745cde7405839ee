import functools
import itertools
import math
import random
import tracemalloc

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

SEED_PAIRS = 20090912
CTX3 = RingContext(3, 2)
CTX5 = RingContext(5, 2)
CTX2 = RingContext(2, 2)


def _ladder_step(u, pj, top, out):
    """Add X_j * u into out, for X_j = V_{p^j+1} - V_{p^j-1} and dense vectors
    over V_0..V_top.

    X_j V_s = V_{s+p^j} + V_{s-p^j} with V_0 = 0 and V_{-t} = -V_t, and an
    index above top = p^(j+1) reflects: V_{top+t} -> 2V_top - V_{top-t}.
    """
    out[1 + pj:] += u[1:top + 1 - pj]
    out[top] += 2 * u[top + 1 - pj:].sum()
    out[top - pj:top] -= u[top:top - pj:-1]
    out[1:top + 1 - pj] += u[1 + pj:]
    out[1:pj] -= u[pj - 1:0:-1]
    return out


@functools.cache
def ladder_product(p, a, b):
    """V_a * V_b from the second-kind Dickson ladder, the reference for basis_product.

    This is the route core.basis_product took before its closed form, with
    each generator step on a dense numpy vector so that the (1021,1) sample
    stays within seconds: for a <= b with p^j < b <= p^(j+1) and
    b = k p^j + r, 1 <= r <= p^j, the values w_i = V_a V_{i p^j + r} satisfy
    w_1 = X_j w_0 + V_a V_{p^j - r} and w_{i+1} = X_j w_i - w_{i-1}.
    """
    if a > b:
        return ladder_product(p, b, a)
    if a == 1:
        return ((b, 1),)
    pj = 1
    while pj * p < b:
        pj *= p
    top = pj * p
    k = (b - 1) // pj
    r = b - k * pj
    prev = np.zeros(top + 1, dtype=np.int64)
    for t, m in ladder_product(p, a, r):
        prev[t] = m
    cur = _ladder_step(prev, pj, top, np.zeros_like(prev))
    if r < pj:
        for t, m in ladder_product(p, a, pj - r):
            cur[t] += m
    for _ in range(k - 1):
        prev, cur = cur, _ladder_step(cur, pj, top, -prev)
    return tuple((int(t), int(cur[t])) for t in np.flatnonzero(cur))


def reference_induced_power(p, n, a, alternating):
    """The n-th exterior or symmetric power of a, one term at a time in Python.

    Column c is the image of the c-th increasing (exterior) or
    non-decreasing (symmetric) n-tuple in lexicographic order: each factor
    t multiplies every term so far by each nonzero a[row, t]; an exterior
    term skips a repeated row and takes the sign of the parity of its rows
    above the new one.
    """
    a = np.asarray(a, dtype=np.int64) % p
    pick = itertools.combinations if alternating else itertools.combinations_with_replacement
    basis = list(pick(range(a.shape[0]), n))
    index = {t: i for i, t in enumerate(basis)}
    cols = [[(int(i), int(a[i, t])) for i in np.flatnonzero(a[:, t])] for t in range(a.shape[1])]
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for ci, tup in enumerate(basis):
        terms = [([], 1)]
        for t in tup:
            new_terms = []
            for idx, val in terms:
                for row, v in cols[t]:
                    if alternating:
                        if row in idx:
                            continue
                        if len([x for x in idx if x > row]) % 2:
                            v = -v
                    new_terms.append((sorted(idx + [row]), val * v))
            terms = new_terms
        for idx, val in terms:
            out[index[tuple(idx)], ci] += val
    return out % p


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

    def test_entries_reduced_before_the_cast(self):
        # reduced mod 3 in their own dtype, these are the identity, [[2]]
        # and [[1]]; an int64 cast first wraps 2**64 - 1 to -1, squares
        # 2**32 + 1 past int64 and takes g - 1 below int64 min
        ctx = RingContext(3, 1)
        g = np.array([[1, 2**64 - 1], [0, 1]], dtype=np.uint64)
        assert decompose(ctx, g).multiplicities == ((1, 2),)
        big = np.array([[2**32 + 1]], dtype=np.int64)
        assert tensor(ctx, big, big).tolist() == [[1]]
        low = np.array([[np.iinfo(np.int64).min]], dtype=np.int64)
        assert decompose(ctx, low).multiplicities == ((1, 1),)

    def test_narrow_input_at_a_large_prime(self):
        # p = 1021 does not fit int8: the remainder is taken in a type that
        # holds both, where g % p in g's own dtype raised OverflowError
        ctx = RingContext(1021, 1)
        g = np.array([[1, -1], [0, 1]], dtype=np.int8)
        assert decompose(ctx, g).multiplicities == ((2, 1),)
        assert tensor(ctx, g, g).tolist() == [[1, 1020, 1020, 1], [0, 1, 0, 1020],
                                              [0, 0, 1, 1020], [0, 0, 0, 1]]

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


class TestWorkingMemory:
    # decompose reduces g into min_scalar_type(p - 1), rank_profile reads
    # that N with no second copy, and the eliminations, of the rows of N
    # sharing a leading column and of the Krylov stack, work on int8 copies
    # reduced on write, so the caller's int64 g is its only array of that
    # width; the peaks are about 1.6 and 14.0 MiB of traced allocations (2.0
    # and 24.3 MiB with int16 and int32 eliminations sized for min(rows,
    # cols) updates, 2.2 and 25.8 MiB with an int64 layer product as well,
    # 6.9 and 66 MiB with int64 working copies)
    @pytest.mark.parametrize("a, b, bound_mib", [(22, 24, 3), (40, 45, 28)])
    def test_decompose_peak(self, a, b, bound_mib):
        ctx = RingContext(7, 2)
        g = tensor(ctx, realize(ctx, a), realize(ctx, b))
        tracemalloc.start()
        try:
            rep = decompose(ctx, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20
        assert rep.to_element() == basis_element(ctx, a) * basis_element(ctx, b)

    def test_pair_product_peak(self):
        # the graded route's one large array is its layers, (a + b) a x a
        # residues in uint16 at p = 1021, about 11 MiB for the widest pair
        # the default cap admits, which sets its traced peak of about
        # 11 MiB; Smith long division on an int64 (a, a, a + b) array
        # peaked at 133 MiB
        ctx = RingContext(1021, 1)
        tracemalloc.start()
        try:
            rep = pair_product(ctx, 141, 141)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert rep.to_element() == basis_element(ctx, 141) * basis_element(ctx, 141)

    def test_builders_return_int64(self):
        # the narrow dtypes stay inside decompose: what the builders return
        # is int64 whatever the input's dtype
        ctx = RingContext(7, 2)
        j = realize(ctx, 5)
        narrow = j.astype(np.uint8)
        assert j.dtype == np.int64
        for m in (tensor(ctx, narrow, narrow), wedge(ctx, 2, narrow), sym(ctx, 2, narrow),
                  tensor(ctx, j, j), wedge(ctx, 2, j), sym(ctx, 2, j)):
            assert m.dtype == np.int64
        assert np.array_equal(wedge(ctx, 2, narrow), wedge(ctx, 2, j))


def invertible_half(rng, h, p):
    """g = 1 + N for a dense N = L diag(A, 0) L^-1 of dimension 2h.

    A is unit upper triangular, so N is invertible on a part of dimension h
    and no power of N is zero; L is unit lower triangular, inverted by
    forward substitution.
    """
    d = 2 * h
    rand = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
    n = np.zeros((d, d), dtype=np.int64)
    n[:h, :h] = np.triu(rand[:h, :h], 1) + np.eye(h, dtype=np.int64)
    low = np.tril(rand, -1) + np.eye(d, dtype=np.int64)
    inv = np.eye(d, dtype=np.int64)
    for i in range(d):
        inv[i] = (inv[i] - low[i, :i] @ inv[:i]) % p
    return (np.eye(d, dtype=np.int64) + low @ n % p @ inv) % p


class TestRefusal:
    # a matrix that is not unipotent of order dividing q is refused when a
    # Krylov layer survives to depth q, before the stack is eliminated and
    # with no power of N: J_600 at (7,2), whose N^49 != 0, peaks at about
    # 1.1 MiB of traced allocations, against 8.7 MiB when the nonzero rows
    # of N^64, squared as 600 x 600 int64 matrices, headed the stack
    def test_refused_before_the_stack(self, monkeypatch):
        ctx = RingContext(7, 2)
        stacks = []
        real = gfp.pivot_rows

        def record(m, p):
            stacks.append(len(m))
            return real(m, p)

        monkeypatch.setattr(gfp, "pivot_rows", record)
        g = gfp.jordan_block(600)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidModuleError, match="not unipotent"):
                decompose(ctx, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacks == []
        assert peak < 4 * 2**20
        with pytest.raises(InvalidModuleError, match="not unipotent"):
            decompose(ctx, invertible_half(random.Random(4000), 60, 7))
        assert stacks == []


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

    @pytest.mark.parametrize("bad", ["float", "scaled", "bool"])
    def test_matrix_routes_reject_non_integer_entries(self, bad):
        # no truncation: J + 0.2 and 1.5 J would build the matrices of J
        j = realize(CTX5, 3)
        g = {"float": j + 0.2, "scaled": 1.5 * j, "bool": j.astype(bool)}[bad]
        for build in (lambda: wedge(CTX5, 2, g), lambda: sym(CTX5, 2, g),
                      lambda: tensor(CTX5, g, j), lambda: tensor(CTX5, j, g)):
            with pytest.raises(InvalidModuleError):
                build()

    def test_matrix_routes_reject_non_square(self):
        for build in (lambda a: wedge(CTX5, 1, a), lambda a: sym(CTX5, 1, a),
                      lambda a: tensor(CTX5, a, a)):
            with pytest.raises(InvalidModuleError):
                build(np.zeros((2, 3), dtype=np.int64))

    def test_matrix_routes_accept_integer_lists(self):
        j = realize(CTX5, 3)
        assert np.array_equal(wedge(CTX5, 2, j.tolist()), wedge(CTX5, 2, j))
        assert np.array_equal(sym(CTX5, 2, j.astype(np.int32)), sym(CTX5, 2, j))
        assert np.array_equal(tensor(CTX5, j.tolist(), j), tensor(CTX5, j, j))

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

    def test_split_route_agrees_across_contexts(self, ctx33, ctx72):
        # at odd p the swap splits V_r tensor V_r into its exterior and
        # symmetric squares; pair_product reads the tensor off its grading,
        # independent of the wedge/sym matrices
        cases = [(ctx33, (14, 20, 27)), (ctx72, (16, 22)), (CTX5, (17, 25))]
        cases += [(ctx, range(2, 14)) for ctx in (ctx33, CTX5, ctx72)]
        for ctx, rs in cases:
            for r in rs:
                halves = (wedge_decomposition(ctx, 2, r).to_element()
                          + sym_decomposition(ctx, 2, r).to_element())
                assert halves == pair_product(ctx, r, r).to_element(), (ctx.p, r)

    def test_cap_applies_to_requested_half(self, monkeypatch):
        # each half is checked against the cap at its own dimension:
        # wedge^2(V6) is 15-dimensional, sym^2(V6) 21-dimensional
        monkeypatch.setenv("GREENRING_ORACLE_CAP", "15")
        assert dim(wedge_decomposition(CTX5, 2, 6).to_element()) == 15
        with pytest.raises(OracleCapacityError):
            sym_decomposition(CTX5, 2, 6)

    def test_square_takes_matrix_route(self, ctx24, monkeypatch):
        # every square, at p = 2 and at odd p, decomposes its induced matrix;
        # no power decomposition reaches the graded pair route
        monkeypatch.setattr(gfp, "jordan_pair_rank_profile", _route_not_taken)
        for ctx in (ctx24, CTX5):
            for r in (2, 5, 9, 16):
                for power, build in ((wedge_decomposition, wedge), (sym_decomposition, sym)):
                    literal = decompose(ctx, build(ctx, 2, realize(ctx, r)))
                    assert power(ctx, 2, r) == literal, (ctx.p, r)


def builder_cases(rng, p, d):
    """Random sparse and dense d x d matrices and the Jordan block J_d, entries 0..p-1."""
    sparse = np.array([[rng.randrange(1, p) if rng.random() < 0.3 else 0 for _ in range(d)]
                       for _ in range(d)], dtype=np.int64).reshape(d, d)
    dense = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                     dtype=np.int64).reshape(d, d)
    return [("sparse", sparse), ("dense", dense), ("jordan", gfp.jordan_block(d))]


class TestInducedPowerBuilder:
    # wedge and sym against the per-term reference, for every degree 0..4
    # and d = 0..9; the dense cases stop where the reference's terms,
    # C(d + n - 1, n) d^n, pass 20,000
    @pytest.mark.parametrize("p", (2, 3, 5, 7, 31))
    def test_matches_reference(self, p):
        ctx = RingContext(p, 1)
        rng = random.Random(9100 + p)
        for d in range(10):
            for kind, a in builder_cases(rng, p, d):
                for n in range(5):
                    if kind == "dense" and math.comb(max(d + n - 1, 0), n) * d**n > 20000:
                        continue
                    for alternating, build in ((True, wedge), (False, sym)):
                        expected = reference_induced_power(p, n, a, alternating)
                        if alternating and n > d:
                            with pytest.raises(IndexRangeError):
                                build(ctx, n, a)
                            got = oracle._induced_power(ctx, n, a, alternating)
                        else:
                            got = build(ctx, n, a)
                        assert got.dtype == np.int64 and got.flags.c_contiguous
                        assert got.min(initial=0) >= 0 and got.max(initial=0) < p
                        assert np.array_equal(got, expected), (kind, d, n, alternating)

    @pytest.mark.parametrize("cells", (1, 30, 100, 200))
    def test_chunks_straddle_the_budget(self, cells, monkeypatch):
        # J_8 with a dense last column and one dense row: a column of the
        # cube has from 8 to 8^3 terms (3 index cells each), so at these
        # budgets some columns pass the budget on their own and, but for
        # the budget of one cell, some chunks hold several columns
        p = 5
        rng = random.Random(9200)
        a = gfp.jordan_block(8)
        a[:, 7] = [rng.randrange(1, p) for _ in range(8)]
        a[3] = [rng.randrange(1, p) for _ in range(8)]
        monkeypatch.setattr(oracle, "_POWER_CELLS", cells)
        ctx = RingContext(p, 1)
        counts = np.count_nonzero(a, axis=0)
        for alternating, build in ((True, wedge), (False, sym)):
            pick = itertools.combinations if alternating else itertools.combinations_with_replacement
            terms = [3 * math.prod(counts[list(t)]) for t in pick(range(8), 3)]
            assert cells < max(terms)
            assert cells == 1 or min(terms) <= cells
            expected = reference_induced_power(p, 3, a, alternating)
            assert np.array_equal(build(ctx, 3, a), expected)

    def test_dense_cube_memory(self):
        # S^3 of a dense 16 x 16 matrix at p = 7 has 816 columns of 4,096
        # terms each, 3.3 M terms; chunked, the build peaks within 32 MiB
        # of its 5.1 MiB result
        ctx = RingContext(7, 2)
        rng = random.Random(9300)
        a = np.array([[rng.randrange(7) for _ in range(16)] for _ in range(16)], dtype=np.int64)
        tracemalloc.start()
        try:
            out = sym(ctx, 3, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (816, 816)
        assert peak < out.nbytes + 32 * 2**20


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

    def test_argument_order_is_irrelevant(self, ctx72):
        # V_a tensor V_b = V_b tensor V_a: both orders give one report, and
        # it matches the literal tensor in the order given
        pairs = [(CTX3, b, a) for a, b in itertools.combinations(range(1, 10), 2)]
        pairs += [(ctx72, a, b) for a, b in [(12, 7), (21, 14), (49, 3), (30, 2)]]
        for ctx, a, b in pairs:
            lit = decompose(ctx, tensor(ctx, realize(ctx, a), realize(ctx, b)))
            assert pair_product(ctx, a, b) == pair_product(ctx, b, a) == lit, (a, b)

    def test_literal_tensor_at_scale(self, ctx72):
        # d = 676 and d = 900: the largest literal matrices any test decomposes
        for a, b in [(26, 26), (30, 30)]:
            lit = decompose(ctx72, tensor(ctx72, realize(ctx72, a), realize(ctx72, b)))
            fast = pair_product(ctx72, a, b)
            assert lit.rank_profile == fast.rank_profile, (a, b)
            assert lit.multiplicities == fast.multiplicities, (a, b)


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

    @pytest.mark.parametrize(
        "p,nu,sample",
        [(2, 5, None), (3, 3, None), (5, 2, None), (7, 2, None), (2, 6, None),
         (31, 2, 300), (2, 10, 300), (1021, 1, 300)],
    )
    def test_closed_form_matches_ladder(self, p, nu, sample):
        # every pair at small contexts and a seeded sample near the order cap,
        # in both argument orders, against the generator ladder kept above
        q = p**nu
        if sample is None:
            pairs = list(itertools.combinations_with_replacement(range(1, q + 1), 2))
        else:
            rng = random.Random(SEED_PAIRS + q)
            pairs = [(rng.randint(1, q), rng.randint(1, q)) for _ in range(sample)]
        bad = [
            (a, b)
            for a, b in pairs
            if not basis_product(p, a, b) == basis_product(p, b, a) == ladder_product(p, a, b)
        ]
        assert bad == []

    def test_basis_product_rejects_index_zero(self):
        with pytest.raises(IndexRangeError):
            basis_product(3, 0, 4)
        with pytest.raises(IndexRangeError):
            basis_product(3, 4, 0)

    @pytest.mark.parametrize("p,nu,sample", [(2, 4, None), (3, 3, None), (5, 2, None), (7, 2, 300)])
    def test_ladder_matches_pair_product(self, p, nu, sample):
        # multiply comes from the closed form in basis_product; the oracle is
        # the independent check: every pair at small contexts, a seeded sample
        # at (7,2)
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

    @pytest.mark.parametrize(
        "p,nu,fixed",
        [(31, 2, [(7, 902), (24, 566), (100, 190)]), (2, 10, []),
         (1021, 1, [(108, 147), (141, 141)])],
        ids=["31-2", "2-10", "1021-1"],
    )
    def test_pair_product_near_order_cap(self, p, nu, fixed):
        # seeded pairs drawn the way run_oracle draws them, in both argument
        # orders, with a dimension bound of 3000, and fixed pairs up to the
        # default cap: thin pairs run to the order, whose many degrees each
        # take a kernel call, and square ones widen every degree's block
        ctx = RingContext(p, nu)
        rng = random.Random(SEED_PAIRS + ctx.order)
        pairs = list(fixed)
        for _ in range(24):
            a = rng.randint(1, min(ctx.order, 3000))
            pairs.append((a, rng.randint(1, min(ctx.order, 3000 // a))))
        bad = [
            (a, b)
            for a, b in pairs + [(b, a) for a, b in pairs]
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


class TestIndexArguments:
    # an index or degree that is a bool or a float is rejected, never
    # truncated: wedge_decomposition(ctx, 2, True) was the zero module
    CALLS = {
        "realize": lambda v: realize(CTX5, v),
        "pair_product_a": lambda v: pair_product(CTX5, v, 3),
        "pair_product_b": lambda v: pair_product(CTX5, 3, v),
        "wedge_index": lambda v: wedge_decomposition(CTX5, 2, v),
        "sym_index": lambda v: sym_decomposition(CTX5, 2, v),
        "wedge_degree": lambda v: wedge_decomposition(CTX5, v, 3),
        "sym_degree": lambda v: sym_decomposition(CTX5, v, 3),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 2.5, "2", None, -1])
    def test_rejected(self, call, value):
        with pytest.raises(IndexRangeError):
            self.CALLS[call](value)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_numpy_integers_accepted(self, call):
        assert self.CALLS[call](np.int64(2)) is not None
