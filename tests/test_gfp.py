"""The GF(p) elimination kernel, rank profiles and Smith valuations against pure-Python references.

The row rank profile is unique: the pivots are the rows that raise the rank
of the rows above them.  So pivot_rows must return exactly the pivots of a
pure-Python Gauss-Jordan elimination, whatever order it eliminates in.
"""

import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from greenring import InvalidModuleError, RingContext, gfp, oracle

PRIMES = (2, 3, 5, 7, 31, 1021)


def reference_column_basis(m, p):
    """Gauss-Jordan on Python lists of columns, reducing after every step."""
    d = len(m)
    rest = [[int(x) % p for x in col] for col in zip(*m)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for i in range(d):
        k = next((k for k, col in enumerate(rest) if col[i]), None)
        if k is None:
            continue
        piv = rest.pop(k)
        inv = pow(piv[i], p - 2, p)
        piv = [x * inv % p for x in piv]
        for col in basis + rest:
            f = col[i]
            if f:
                col[:] = [(x - f * y) % p for x, y in zip(col, piv)]
        basis.append(piv)
        pivots.append(i)
    e = np.array([list(row) for row in zip(*basis)], dtype=np.int64)
    return e.reshape(d, len(basis)), pivots


def reference_pivot_leads(m, p):
    """Row rank profile and pivot leads, each row reduced by the pivot rows above.

    A row is cleared at its leading column while a pivot row above leads
    there; what is left, if nonzero, is a new pivot on its leading column.
    That column is the lead of the one vector of row + span(rows above)
    that is zero in every earlier pivot lead.
    """
    basis: dict[int, list[int]] = {}
    pivots: list[int] = []
    leads: list[int] = []
    for i, row in enumerate(np.asarray(m).tolist()):
        row = [x % p for x in row]
        j = next((j for j, x in enumerate(row) if x), None)
        while j in basis:
            f = row[j]
            row = [(x - f * y) % p for x, y in zip(row, basis[j])]
            j = next((j for j, x in enumerate(row) if x), None)
        if j is None:
            continue
        inv = pow(row[j], -1, p)
        basis[j] = [x * inv % p for x in row]
        pivots.append(i)
        leads.append(j)
    return pivots, leads


def reference_rank(m, p):
    return len(reference_column_basis(m, p)[1])


def random_matrix(rng, d, n, p, density):
    vals = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(d)]
    return np.array(vals, dtype=np.int64).reshape(d, n)


def low_rank_matrix(rng, d, n, r, p):
    """A d x n matrix of rank exactly r: rows and columns of [[I, Y], [X, XY]] permuted."""
    x = random_matrix(rng, d - r, r, p, 1.0)
    y = random_matrix(rng, r, n - r, p, 1.0)
    a = np.vstack([np.eye(r, dtype=np.int64), x])
    b = np.hstack([np.eye(r, dtype=np.int64), y])
    m = (a @ b) % p
    rows = list(range(d))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return m[rows][:, cols]


# (d, n, density): empty, wide, tall, zero, square sparse and dense
SHAPES = [(0, 0, 0.5), (0, 4, 0.5), (4, 0, 0.5), (1, 1, 1.0), (3, 3, 0.0),
          (5, 12, 0.4), (12, 5, 0.4), (9, 9, 0.1), (14, 14, 1.0),
          (20, 17, 0.25), (17, 20, 0.7), (25, 25, 0.05)]


class TestColumnBasis:
    # pivot_rows against the pivots of reference_column_basis, the
    # pure-Python reduced column-echelon form the class is named for
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_reference(self, p):
        rng = random.Random(7000 + p)
        for d, n, density in SHAPES:
            for _ in range(3):
                m = random_matrix(rng, d, n, p, density)
                assert gfp.pivot_rows(m, p) == reference_column_basis(m, p)[1]

    @pytest.mark.parametrize("p", PRIMES)
    def test_known_rank(self, p):
        rng = random.Random(7100 + p)
        for d, n, r in [(10, 10, 0), (10, 10, 4), (8, 15, 8), (15, 8, 3), (12, 12, 12)]:
            m = low_rank_matrix(rng, d, n, r, p)
            pivots_ref = reference_column_basis(m, p)[1]
            assert len(pivots_ref) == r
            assert gfp.pivot_rows(m, p) == pivots_ref

    def test_unreduced_input(self):
        rng = random.Random(7200)
        m = random_matrix(rng, 10, 10, 7, 0.6)
        shifted = m + 7 * np.array(
            [[rng.randrange(-50, 50) for _ in range(10)] for _ in range(10)]
        )
        assert gfp.pivot_rows(shifted, 7) == reference_column_basis(m, 7)[1]

    def test_input_untouched(self):
        rng = random.Random(7300)
        m = random_matrix(rng, 12, 12, 5, 0.5)
        before = m.copy()
        assert gfp.pivot_rows(m, 5) == reference_column_basis(m, 5)[1]
        assert np.array_equal(m, before)

    def test_dense_large_prime(self):
        # entries accumulate up to d*(p-1)^2 between reductions: an overflow
        # or a missed reduction would change the pivots
        p = 1021
        rng = random.Random(7400)
        m = random_matrix(rng, 300, 300, p, 1.0)
        assert gfp.pivot_rows(m, p) == reference_column_basis(m, p)[1]
        m = low_rank_matrix(rng, 300, 300, 260, p)
        pivots_ref = reference_column_basis(m, p)[1]
        assert len(pivots_ref) == 260
        assert gfp.pivot_rows(m, p) == pivots_ref

    @pytest.mark.parametrize("p", (7, 31, 251, 1021))
    def test_unsigned_input(self, p):
        # rank_profile passes N and its Krylov stack as uint8 or uint16
        rng = random.Random(7500 + p)
        dtype = np.min_scalar_type(p - 1)
        for d, n, density in SHAPES:
            m = random_matrix(rng, d, n, p, density)
            small = m.astype(dtype)
            before = small.copy()
            assert gfp.pivot_rows(small, p) == reference_column_basis(m, p)[1]
            assert np.array_equal(small, before)

    @pytest.mark.parametrize("p", PRIMES)
    def test_pivot_leads_match_reference(self, p):
        # the kernel's second read-out: the leading column of each pivot's
        # reduced row, from the row loop and from the distinct-lead exit
        rng = random.Random(7050 + p)
        for d, n, density in SHAPES:
            for _ in range(3):
                m = random_matrix(rng, d, n, p, density)
                assert gfp._pivots(m, p) == reference_pivot_leads(m, p)
        for m in (gfp.jordan_block(9) - np.eye(9, dtype=np.int64),
                  np.eye(5, 8, 2, dtype=np.int64)):
            assert gfp._pivots(m, p) == reference_pivot_leads(m, p)

    @pytest.mark.parametrize("build, size", [("tensor", (10, 12)), ("tensor", (11, 13)),
                                             ("wedge", 16), ("sym", 14)])
    def test_induced_displacements(self, build, size, monkeypatch):
        # every matrix rank_profile hands the kernel, for the displacement
        # of a tensor, a wedge square and a sym square at (7,2),
        # d = 105..143: the Krylov stack, whose pivot column is often not
        # the first column not yet pivoted, and the colliders of N, the rows
        # that share a leading column with a row above, when there are any
        ctx = RingContext(7, 2)
        if build == "tensor":
            g = oracle.tensor(ctx, *(oracle.realize(ctx, r) for r in size))
        else:
            g = getattr(oracle, build)(ctx, 2, oracle.realize(ctx, size))
        n = (g - np.eye(g.shape[0], dtype=np.int64)) % 7
        calls = []
        pivots = gfp._pivots

        def record(m, p):
            calls.append(m.copy())
            return pivots(m, p)

        monkeypatch.setattr(gfp, "_pivots", record)
        gfp.rank_profile(n, 7, ctx.order)
        monkeypatch.undo()
        assert len(calls) == 2
        for m in calls:
            rows, leads = gfp._pivots(m, 7)
            assert rows == reference_column_basis(m, 7)[1]
            assert (rows, leads) == reference_pivot_leads(m, 7)

    @pytest.mark.parametrize("p, nu", [(3, 2), (2, 5)])
    def test_jordan_blocks_take_the_lead_exit(self, p, nu, monkeypatch):
        # the nonzero rows of a Jordan block's N and of its Krylov stack have
        # pairwise distinct leading columns, so the round trip never runs the
        # row loop
        def row_loop(a, p):
            raise AssertionError("pivot_rows ran its row loop")

        monkeypatch.setattr(gfp, "_eliminate", row_loop)
        ctx = RingContext(p, nu)
        for r in range(1, ctx.order + 1):
            assert oracle.decompose(ctx, oracle.realize(ctx, r)).multiplicities == ((r, 1),)

    def test_shared_leads_run_the_row_loop(self, monkeypatch):
        # no more rows than columns, but two nonzero rows share a leading
        # column: dependent, independent, after a zero row, and both mixed
        cases = [np.array([[0, 1, 2, 0], [0, 2, 4, 0]]),
                 np.array([[1, 0, 0, 4], [1, 1, 0, 0]]),
                 np.array([[0, 0, 0, 0], [1, 1, 0, 0], [1, 0, 0, 4]]),
                 np.array([[0, 1, 2, 0, 3], [1, 0, 0, 4, 0], [0, 2, 4, 0, 1], [1, 1, 0, 0, 0]])]
        calls = []
        eliminate = gfp._eliminate

        def row_loop(a, p):
            calls.append(len(a))
            return eliminate(a, p)

        monkeypatch.setattr(gfp, "_eliminate", row_loop)
        for case in cases:
            assert gfp.pivot_rows(case, 5) == reference_column_basis(case, 5)[1]
        assert calls == [len(case) for case in cases]

    @pytest.mark.parametrize("p", (2, 7, 1021))
    def test_pivot_rows_any_memory_order(self, p):
        # the rows found must not depend on the memory order of the input:
        # an elimination that updates a flat view of a Fortran-ordered copy
        # would write into a temporary and lose its updates
        rng = random.Random(7600 + p)
        for d, n, density in SHAPES:
            m = random_matrix(rng, d, n, p, density)
            for view in (np.asfortranarray(m), m.T, np.asfortranarray(m).T):
                ref = np.ascontiguousarray(view)
                assert gfp.pivot_rows(view, p) == reference_column_basis(ref, p)[1]


def worst_growth_matrix(d, p, corner):
    """A d x d matrix whose elimination takes (p-1)^2 off its corner at every pivot.

    Row i < d-1 is e_i + (p-1) e_(d-1), each a pivot with no update above it,
    and the last row is p-1 before the corner: every multiplier is p-1, so
    the corner falls by (d-1)(p-1)^2 before its row is reduced, the most any
    entry of a d-row elimination can fall.  The last row is dependent exactly
    when corner = (d-1)(p-1)^2 mod p.
    """
    m = np.eye(d, dtype=np.int64)
    m[:, -1] = p - 1
    m[-1] = p - 1
    m[-1, -1] = corner
    return m


class TestWorkingDtype:
    # pivot_rows eliminates on the narrowest signed dtype holding
    # min(rows, cols)*(p-1)^2 + p; at p = 31 that is 36*900 + 31 < 2^15 for
    # 36 rows and int32 from 37 rows, at p = 1021 int32 up to 2064 rows
    @pytest.mark.parametrize("rows, cols, p, dtype", [
        (36, 36, 31, np.int16), (36, 500, 31, np.int16), (500, 37, 31, np.int32),
        (2064, 2064, 1021, np.int32), (5000, 2064, 1021, np.int32),
        (2065, 2065, 1021, np.int64), (2065, 5000, 1021, np.int64),
        (126, 126, 2, np.int8), (127, 127, 2, np.int16), (0, 0, 1021, np.int16),
    ])
    def test_rule(self, rows, cols, p, dtype):
        got = gfp.elimination_dtype(rows, cols, p)
        assert got == dtype
        bound = min(rows, cols) * (p - 1) ** 2 + p
        assert np.iinfo(got).min <= -bound and bound - 1 <= np.iinfo(got).max

    @pytest.mark.parametrize("d, dtype", [(36, np.int16), (37, np.int32)])
    def test_dense_at_the_int16_edge(self, d, dtype, monkeypatch):
        # dense random matrices on both sides of the switch, full and low
        # rank, a dense nilpotent one, whose Krylov stack of at least d rows
        # is eliminated in the same dtype, and the matrix whose corner falls
        # the furthest
        p = 31
        rng = random.Random(8400 + d)
        mats = [random_matrix(rng, d, d, p, 1.0) for _ in range(3)]
        mats += [low_rank_matrix(rng, d, d, r, p) for r in (d - 1, d // 2)]
        mats.append(conjugated_jordan(rng, [12, 10, 8, d - 30], p))
        fall = (d - 1) * (p - 1) ** 2
        mats += [worst_growth_matrix(d, p, c) for c in (fall % p, (fall + 1) % p)]
        used = []
        reduced = gfp.reduced

        def record(m, p, dtype):
            used.append(np.dtype(dtype))
            return reduced(m, p, dtype)

        monkeypatch.setattr(gfp, "reduced", record)
        for m in mats:
            pivots = reference_column_basis(m, p)[1]
            used.clear()
            assert gfp.pivot_rows(m, p) == pivots
            assert used == [dtype]
            ranks = power_ranks(m, p, d + 1)
            used.clear()
            assert_profile(m, p, d + 1, ranks)
            if not ranks[-1]:
                # the last elimination is the Krylov stack's
                assert used[-1] == dtype
        assert not power_ranks(mats[-3], p, d + 1)[-1]
        assert len(reference_column_basis(mats[-2], p)[1]) == d - 1
        assert len(reference_column_basis(mats[-1], p)[1]) == d

    @pytest.mark.parametrize("d", (36, 37))
    def test_unreduced_negative_and_unsigned_input(self, d):
        # entries far from 0..p-1 are reduced before the narrow cast, in a
        # type that holds them: none wraps, whatever the input dtype
        p = 31
        rng = random.Random(8500 + d)
        for m in (random_matrix(rng, d, d, p, 1.0), low_rank_matrix(rng, d, d, d - 3, p),
                  worst_growth_matrix(d, p, 0)):
            pivots = reference_column_basis(m, p)[1]
            ranks = power_ranks(m, p, d + 1)
            k = np.array([[rng.randrange(1, 1000) for _ in range(d)] for _ in range(d)])
            top = (2**63 - 1) // p - 1
            variants = [
                m + p * k,
                m - p * k,
                m - p * top,
                m.astype(np.uint64) + np.uint64(p) * np.uint64((2**64 - 1) // p - 1),
                m.astype(np.uint64) + np.uint64(p) * k.astype(np.uint64),
            ]
            for v in variants:
                assert gfp.pivot_rows(v, p) == pivots
                assert_profile(v, p, d + 1, ranks)


def unit_triangular_inverse(t, p):
    """Inverse of a unit lower-triangular matrix mod p, by forward substitution."""
    d = t.shape[0]
    x = np.eye(d, dtype=np.int64)
    for i in range(d):
        x[i] = (x[i] - t[i, :i] @ x[:i]) % p
    return x


def conjugated_jordan(rng, sizes, p):
    """Dense N = P (J - 1) P^-1 for the Jordan module with these block sizes."""
    d = sum(sizes)
    n = np.zeros((d, d), dtype=np.int64)
    at = 0
    for s in sizes:
        for i in range(s - 1):
            n[at + i, at + i + 1] = 1
        at += s
    return random_conjugate(rng, n, p)


def random_conjugate(rng, n, p):
    """P n P^-1 for a dense random P = L U, L and U unit triangular."""
    d = n.shape[0]
    lower = np.tril(random_matrix(rng, d, d, p, 1.0), -1) + np.eye(d, dtype=np.int64)
    upper = np.triu(random_matrix(rng, d, d, p, 1.0), 1) + np.eye(d, dtype=np.int64)
    pm = (lower @ upper) % p
    pinv = (unit_triangular_inverse(upper.T, p).T @ unit_triangular_inverse(lower, p)) % p
    assert np.array_equal((pm @ pinv) % p, np.eye(d, dtype=np.int64))
    return (((pm @ n) % p) @ pinv) % p


def power_ranks(n, p, max_k):
    ranks = []
    power = np.eye(n.shape[0], dtype=np.int64)
    for _ in range(max_k + 1):
        ranks.append(reference_rank(power, p))
        power = (power @ n) % p
    return ranks


def assert_profile(n, p, max_k, ranks):
    """rank_profile(n) gives ranks, those of n's powers, when n^max_k = 0, and
    raises ValueError otherwise."""
    if ranks[-1]:
        with pytest.raises(ValueError, match="is not zero"):
            gfp.rank_profile(n, p, max_k)
    else:
        assert gfp.rank_profile(n, p, max_k) == ranks


def block_ranks(sizes, max_k):
    return [sum(max(s - k, 0) for s in sizes) for k in range(max_k + 1)]


def krylov_stack(n, p):
    """The layers w N^j of the unit vectors w off lead_set(N), zero rows dropped, deepest first."""
    layer = np.eye(len(n), dtype=np.int64)[~gfp.lead_set(n, p)]
    layers = []
    while len(layer):
        layers.append(layer)
        layer = layer @ n % p
        layer = layer[layer.any(axis=1)]
    return np.vstack(layers[::-1])


def shifts_with_full_column(rng, sizes, p):
    """Shift blocks of these sizes, then every entry of the last column above the diagonal nonzero.

    The matrix is strictly upper triangular.  With one block, its
    superdiagonal stays nonzero, so it is one Jordan block of size d.  With
    m blocks of size s >= 2, let z be the last basis vector: each block but
    the last runs s steps and then hits a nonzero multiple of z, and the
    last block ends at z.  So its Jordan type is s + 1, s (m - 2 times) and
    s - 1.
    """
    d = sum(sizes)
    n = np.zeros((d, d), dtype=np.int64)
    at = 0
    for s in sizes:
        n[np.arange(at, at + s - 1), np.arange(at + 1, at + s)] = 1
        at += s
    n[: d - 1, d - 1] = [rng.randrange(1, p) for _ in range(d - 1)]
    return n


def column_sum_edge(p, m):
    """N of size m + 2 whose longest column, of m nonzeros, sums to nearly m (p-1)^2.

    Row 0 is a at columns 1..m and column m + 1 is b at rows 1..m, so
    e_0 N^2 = (sum_r a_r b_r) e_(m+1), a column sum of m products of
    residues, and no other entry of N^2 is nonzero.  For m = 1, a = b = p - 1.
    For m >= 2 the products are (p-1)^2 but for two, picked to make the sum
    the largest one divisible by p, so that N^2 = 0: an accumulator that
    wraps below the sum makes N^2 look nonzero.  Returns N and the sum.
    """
    best = {}
    for x in range(1, p):
        for y in range(1, p):
            t = x * y % p
            if x * y > best.get(t, (0,))[0]:
                best[t] = (x * y, x, y)
    a = [p - 1] * m
    b = [p - 1] * m
    if m >= 2:
        pairs = [t for t in best if (2 - m - t) % p in best]
        t = max(pairs, key=lambda t: best[t][0] + best[(2 - m - t) % p][0])
        a[-2:] = best[t][1], best[(2 - m - t) % p][1]
        b[-2:] = best[t][2], best[(2 - m - t) % p][2]
    n = np.zeros((m + 2, m + 2), dtype=np.int64)
    n[0, 1 : m + 1] = a
    n[1 : m + 1, m + 1] = b
    return n, sum(x * y for x, y in zip(a, b))


class TestRankProfile:
    @pytest.mark.parametrize("p", (2, 3, 5, 7, 31))
    def test_dense_conjugates(self, p):
        rng = random.Random(7500 + p)
        for _ in range(4):
            sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 7))]
            n = conjugated_jordan(rng, sizes, p)
            assert np.count_nonzero(n) > n.size // 3 or sum(sizes) < 8
            max_k = max(sizes) + 2
            expected = block_ranks(sizes, max_k)
            assert power_ranks(n, p, max_k) == expected
            assert gfp.rank_profile(n, p, max_k) == expected
            assert gfp.rank_profile(n.T.copy(), p, max_k) == expected

    def test_dense_conjugate_large(self):
        p = 7
        rng = random.Random(7600)
        sizes = [rng.randint(1, 49) for _ in range(12)]
        n = conjugated_jordan(rng, sizes, p)
        assert gfp.rank_profile(n, p, 49) == block_ranks(sizes, 49)
        assert gfp.rank_profile(n.T.copy(), p, 49) == block_ranks(sizes, 49)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_complement_far_from_heads(self, p):
        # many small blocks beside one long one: the free rows of a dense
        # conjugate are far from Jordan heads, so most of the 36 unit
        # vectors run to depth 12 and the Krylov stack is much taller than d
        rng = random.Random(8100 + p)
        sizes = [1] * 30 + [2] * 5 + [12]
        n = conjugated_jordan(rng, sizes, p)
        assert gfp.rank_profile(n, p, 14) == block_ranks(sizes, 14)
        assert gfp.rank_profile(n.T.copy(), p, 14) == block_ranks(sizes, 14)

    def test_truncated_and_padded(self):
        rng = random.Random(7700)
        sizes = [5, 3, 3, 1]
        n = conjugated_jordan(rng, sizes, 5)
        # cut below the nilpotency index 5, N^max_k != 0
        for max_k in (0, 2):
            with pytest.raises(ValueError, match="is not zero"):
                gfp.rank_profile(n, 5, max_k)
        assert gfp.rank_profile(n, 5, 5) == [12, 8, 5, 2, 1, 0]
        assert gfp.rank_profile(n, 5, 8) == [12, 8, 5, 2, 1, 0, 0, 0, 0]

    def test_not_nilpotent(self):
        # W is empty, so no layer is built and the stack has no pivot
        eye = np.eye(4, dtype=np.int64)
        assert power_ranks(eye, 3, 3) == [4, 4, 4, 4]
        with pytest.raises(ValueError, match="is not zero"):
            gfp.rank_profile(eye, 3, 3)

    @pytest.mark.parametrize("p", (2, 3, 7))
    def test_complement_meets_invertible_part(self, p):
        # the free row e_0 has a component along the invertible part
        # span{e_1}, so its Krylov layers never vanish: the layer at depth
        # d = 2 is alive
        n = np.array([[0, 0], [1, 1]], dtype=np.int64)
        assert power_ranks(n, p, 3) == [2, 1, 1, 1]
        with pytest.raises(ValueError, match="is not zero"):
            gfp.rank_profile(n, p, 3)

    def test_invertible_half_depth_capped(self, monkeypatch):
        # a dense conjugate of (invertible 60 x 60) + 0: every Krylov layer
        # survives, so the layer at depth max_k = 7 refuses N before any
        # elimination of the stack (all d = 120 layers without the cap at
        # max_k)
        p = 7
        rng = random.Random(8200)
        a = random_matrix(rng, 60, 60, p, 1.0)
        while reference_rank(a, p) < 60:
            a = random_matrix(rng, 60, 60, p, 1.0)
        n = np.zeros((120, 120), dtype=np.int64)
        n[:60, :60] = a
        n = random_conjugate(rng, n, p)
        expected = [120] + [60] * 7
        assert power_ranks(n, p, 7) == expected
        monkeypatch.setattr(gfp, "pivot_rows", None)
        with pytest.raises(ValueError, match="is not zero"):
            gfp.rank_profile(n, p, 7)
        with pytest.raises(InvalidModuleError):
            oracle.decompose(RingContext(p, 1), (n + np.eye(120, dtype=np.int64)) % p)

    @pytest.mark.parametrize("sizes", [[40], [600], [5] * 6, [15] * 40])
    def test_one_full_column_spills(self, sizes, monkeypatch):
        # one column of d - 1 nonzeros beside columns of one: the slot
        # table has 3 slots a column, so the column's other nonzeros go
        # through the spill.  The small cases are checked against the
        # powers of N, the d = 600 ones against the Jordan type that
        # shifts_with_full_column derives and the small ones
        # confirm.  With several blocks the layers have a row per block, and
        # the stack must equal their explicit products row by row
        p = 7
        n = shifts_with_full_column(random.Random(9000 + len(sizes)), sizes, p)
        d = len(n)
        spill = gfp._slots(n.astype(np.uint8), p)[2]
        assert len(spill) == d - 4 and set(spill.tolist()) == {d - 1}
        blocks = [d] if len(sizes) == 1 else [sizes[0] + 1] + sizes[2:] + [sizes[0] - 1]
        max_k = max(blocks) + 1
        expected = block_ranks(blocks, max_k)
        if d < 600:
            assert power_ranks(n, p, max_k) == expected
        calls = self.stacks(monkeypatch)
        assert gfp.rank_profile(n, p, max_k) == expected
        (stack,) = calls
        assert np.array_equal(stack, krylov_stack(n, p))

    @pytest.mark.parametrize("p, m, wide", [
        (7, 7, np.uint8), (7, 8, np.uint16), (17, 1, np.uint16), (251, 1, np.uint16),
        (251, 2, np.uint32), (257, 1, np.uint32), (257, 2, np.uint32),
    ])
    def test_column_sums_at_the_dtype_edges(self, p, m, wide):
        # the product sums a column in the narrowest unsigned dtype holding
        # (longest column) (p-1)^2: just below and just above 255 and
        # 65,535, and on both sides of uint8 residues (p = 251 and 257).
        # Above an edge, the column sum passes the narrower dtype, so a
        # product summed there would wrap and misread N^2
        n, total = column_sum_edge(p, m)
        assert gfp._slots(n.astype(np.min_scalar_type(p - 1)), p)[3] == wide
        assert total <= m * (p - 1) ** 2 <= np.iinfo(wide).max
        if wide != np.uint8:
            narrower = np.dtype(f"u{np.dtype(wide).itemsize // 2}")
            assert total > np.iinfo(narrower).max
        ranks = power_ranks(n, p, 3)
        assert ranks == ([3, 2, 1, 0] if m == 1 else [m + 2, 2, 0, 0])
        assert gfp.rank_profile(n, p, 3) == ranks

    def test_dense_layer_product_memory(self):
        # a dense N has about 6/7 d^2 nonzeros and 223 slots a column here,
        # so one unchunked layer product of its 120 free rows would gather
        # 120 x 53,520 residues (6.4 MB) and their uint16 products (12.8 MB);
        # N is refused at depth 7, after every layer is built
        p = 7
        rng = random.Random(8300)
        a = random_matrix(rng, 120, 120, p, 1.0)
        while reference_rank(a, p) < 120:
            a = random_matrix(rng, 120, 120, p, 1.0)
        n = np.zeros((240, 240), dtype=np.int64)
        n[:120, :120] = a
        n = random_conjugate(rng, n, p)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="is not zero"):
                gfp.rank_profile(n, p, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert power_ranks(n, p, 7) == [240] + [120] * 7

    def test_empty(self):
        assert gfp.rank_profile(np.zeros((0, 0), dtype=np.int64), 2, 3) == [0, 0, 0, 0]
        assert gfp.rank_profile(np.zeros((0, 0), dtype=np.uint8), 2, 3) == [0, 0, 0, 0]

    @pytest.mark.parametrize("shape, max_k, match", [
        ((2, 3), 2, "square"), ((2, 2, 2), 2, "square"), ((2, 2), -1, "max_k"),
    ])
    def test_rejects_bad_input(self, shape, max_k, match):
        with pytest.raises(ValueError, match=match):
            gfp.rank_profile(np.zeros(shape, dtype=np.int64), 5, max_k)

    def test_invertible_plus_nilpotent(self):
        # an invertible 3 x 3 block beside nilpotent blocks of sizes 4 and 2:
        # the ranks fall to 3 and stay there, so N is refused
        for p in (2, 3, 7):
            rng = random.Random(7800 + p)
            a = random_matrix(rng, 3, 3, p, 1.0)
            while reference_rank(a, p) < 3:
                a = random_matrix(rng, 3, 3, p, 1.0)
            n = np.zeros((9, 9), dtype=np.int64)
            n[:3, :3] = a
            n[3:, 3:] = conjugated_jordan(rng, [4, 2], p)
            n = random_conjugate(rng, n, p)
            expected = [3 + r for r in block_ranks([4, 2], 7)]
            assert expected[-4:] == [3, 3, 3, 3]
            assert power_ranks(n, p, 7) == expected
            assert_profile(n, p, 7, expected)

    def test_small_max_k(self):
        rng = random.Random(7900)
        for p in (2, 5):
            n = conjugated_jordan(rng, [6, 3, 1], p)
            general = random_matrix(rng, 10, 10, p, 0.4)
            for m in (n, general):
                # 0, 1, every cut below the nilpotency index 6, the index
                # and one above it
                for max_k in range(8):
                    assert_profile(m, p, max_k, power_ranks(m, p, max_k))

    @pytest.mark.parametrize("p", (2, 3, 1021))
    def test_one_by_one(self, p):
        for value in (0, p, -p):
            assert gfp.rank_profile(np.array([[value]]), p, 3) == [1, 0, 0, 0]
        for value in (1, p - 1, p + 1, -1):
            with pytest.raises(ValueError, match="is not zero"):
                gfp.rank_profile(np.array([[value]]), p, 3)
        # N^0 = 1 != 0
        with pytest.raises(ValueError, match="is not zero"):
            gfp.rank_profile(np.array([[1]]), p, 0)

    @pytest.mark.parametrize("p, nu", [(2, 3), (3, 2)])
    def test_induced_displacements(self, p, nu):
        # the sparse displacements the oracle decomposes: tensors of Jordan
        # blocks and their third exterior and symmetric powers
        ctx = RingContext(p, nu)
        q = ctx.order
        mats = [oracle.tensor(ctx, oracle.realize(ctx, a), oracle.realize(ctx, b))
                for a, b in ((2, 3), (4, 5), (5, 7))]
        mats += [oracle.wedge(ctx, 3, oracle.realize(ctx, r)) for r in (3, 5, 7)]
        mats += [oracle.sym(ctx, 3, oracle.realize(ctx, r)) for r in (2, 3, 5)]
        for g in mats:
            n = (g - np.eye(g.shape[0], dtype=np.int64)) % p
            assert gfp.rank_profile(n, p, q) == power_ranks(n, p, q)

    @pytest.mark.parametrize("p", (2, 3, 5, 31, 1021))
    def test_dense_general(self, p):
        # neither nilpotent nor invertible as a rule: full, low-rank and
        # partly nilpotent matrices, refused unless nilpotent
        rng = random.Random(8000 + p)
        for _ in range(12):
            d = rng.randint(1, 18)
            kind = rng.randrange(3)
            if kind == 0:
                m = random_matrix(rng, d, d, p, 1.0)
            elif kind == 1:
                m = low_rank_matrix(rng, d, d, rng.randint(0, d), p)
            else:
                k = rng.randint(0, d)
                m = np.zeros((d, d), dtype=np.int64)
                m[:k, :k] = random_matrix(rng, k, k, p, 1.0)
                m[k:, k:] = np.triu(random_matrix(rng, d - k, d - k, p, 0.7), 1)
                m = random_conjugate(rng, m, p)
            assert_profile(m, p, d + 1, power_ranks(m, p, d + 1))


    @pytest.mark.parametrize("p", PRIMES)
    def test_lead_set_spans(self, p):
        # the unit vectors off the lead set and the rows of N span F_p^d,
        # and the set has at most rank N columns: on empty and zero input,
        # zero rows, every row on one lead, sparse and dense matrices
        rng = random.Random(8700 + p)
        cases = [np.zeros((0, 0), dtype=np.int64), np.zeros((5, 5), dtype=np.int64)]
        for _ in range(4):
            d = rng.randint(1, 16)
            holes = random_matrix(rng, d, d, p, 0.5)
            holes[rng.randrange(d) :: 3] = 0
            one_lead = random_matrix(rng, d, d, p, 0.6)
            j = rng.randrange(d)
            one_lead[:, :j] = 0
            one_lead[:, j] = [rng.randrange(1, p) for _ in range(d)]
            cases += [holes, one_lead, random_matrix(rng, d, d, p, 0.1),
                      random_matrix(rng, d, d, p, 1.0),
                      conjugated_jordan(rng, [rng.randint(1, 5) for _ in range(3)], p)]
        for n in cases:
            d = len(n)
            led = gfp.lead_set(n.astype(np.min_scalar_type(p - 1)), p)
            assert led.shape == (d,) and led.dtype == bool
            assert reference_rank(np.vstack([np.eye(d, dtype=np.int64)[~led], n]), p) == d
            assert led.sum() <= reference_rank(n, p)

    @staticmethod
    def stacks(monkeypatch):
        # the matrices handed to pivot_rows: rank_profile's Krylov stack
        calls = []
        real = gfp.pivot_rows

        def record(m, p):
            calls.append(m.copy())
            return real(m, p)

        monkeypatch.setattr(gfp, "pivot_rows", record)
        return calls

    @pytest.mark.parametrize("a, b", [(3, 5), (10, 12), (11, 17), (22, 24)])
    def test_tensor_stack(self, a, b, monkeypatch):
        # the complement is exact for J_a x J_b at (7,2) with a <= b, as the
        # oracle builds them: min(a, b) unit vectors, one per block; the
        # stack is their layers w N^j, deepest first
        ctx = RingContext(7, 2)
        g = oracle.tensor(ctx, oracle.realize(ctx, a), oracle.realize(ctx, b))
        n = (g - np.eye(a * b, dtype=np.int64)) % 7
        calls = self.stacks(monkeypatch)
        profile = gfp.rank_profile(n, 7, ctx.order)
        assert profile == list(oracle.pair_product(ctx, a, b).rank_profile)
        assert (~gfp.lead_set(n, 7)).sum() == min(a, b)
        (stack,) = calls
        assert np.array_equal(stack, krylov_stack(n, 7))

    def test_dense_stack_height(self, monkeypatch):
        # a dense conjugate of 12 blocks of 12 at p = 7 (d = 144): the
        # elimination of the colliders keeps the complement exact here, so
        # the stack has 144 rows, as with pivot_rows on all of N; the
        # owners' leads alone would leave 1,680
        sizes = [12] * 12
        n = conjugated_jordan(random.Random(8800), sizes, 7)
        calls = self.stacks(monkeypatch)
        assert gfp.rank_profile(n, 7, 13) == block_ranks(sizes, 13)
        (stack,) = calls
        assert len(stack) <= 2 * 144


NO_NUMPY_MA = """
import sys
import numpy as np
from greenring import RingContext, oracle

ctx = RingContext(7, 2)
dense = np.array({dense}, dtype=np.int64)
mats = [
    oracle.tensor(ctx, oracle.realize(ctx, 10), oracle.realize(ctx, 12)),
    oracle.wedge(ctx, 2, oracle.realize(ctx, 16)),
    (dense + np.eye(len(dense), dtype=np.int64)) % 7,
]
for g in mats:
    oracle.decompose(ctx, g)
assert "numpy.ma" not in sys.modules
print("RESULT: PASS")
"""


class TestImportContract:
    # no decomposition imports numpy.ma, as the first call of np.unique
    # does (about 13 ms and 1 MB inside a timed op): a tensor, a wedge square
    # and a dense conjugate, in a fresh interpreter
    def test_decompose_leaves_numpy_ma_unloaded(self):
        dense = conjugated_jordan(random.Random(8900), [6, 4, 4, 3, 1], 7)
        script = NO_NUMPY_MA.format(dense=dense.tolist())
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("RESULT: PASS")


class TestResidueInput:
    # rank_profile reads a C-ordered N of min_scalar_type(p - 1) with every
    # entry below p as it is, the N that decompose passes, and reduces any
    # other N into a new array of that dtype first; d >= 2, so the strided
    # and Fortran-ordered forms are not C-ordered

    @staticmethod
    def reduce_calls(monkeypatch):
        calls = []
        real = gfp.reduced

        def record(m, p, dtype):
            calls.append(np.dtype(dtype))
            return real(m, p, dtype)

        monkeypatch.setattr(gfp, "reduced", record)
        return calls

    @pytest.mark.parametrize("p", (2, 7, 1021))
    def test_residues_read_in_place(self, p, monkeypatch):
        rng = random.Random(8400 + p)
        sizes = [5, 4, 2, 1, 1]
        n = conjugated_jordan(rng, sizes, p).astype(np.min_scalar_type(p - 1))
        before = n.copy()
        calls = self.reduce_calls(monkeypatch)
        assert gfp.rank_profile(n, p, 7) == block_ranks(sizes, 7)
        assert np.array_equal(n, before)
        # only the eliminations copy, each into a signed dtype: that of the
        # rows of N sharing a leading column, and that of the Krylov stack
        assert [dt.kind for dt in calls] == ["i", "i"]

    @pytest.mark.parametrize("p", (2, 7, 1021))
    def test_any_representation_gives_one_profile(self, p, monkeypatch):
        rng = random.Random(8500 + p)
        small = np.min_scalar_type(p - 1)
        for _ in range(6):
            d = rng.randint(2, 16)
            m = random_matrix(rng, d, d, p, rng.choice((0.2, 1.0)))
            if rng.random() < 0.5:
                m = conjugated_jordan(rng, [rng.randint(1, 5) for _ in range(3)], p)
                d = m.shape[0]
            expected = power_ranks(m, p, d + 1)
            wide = np.zeros((2 * d, 2 * d), dtype=small)
            wide[::2, ::2] = m
            lift = rng.randint(1, 3) * p
            forms = [
                m.astype(small),
                m,
                m.astype(np.int32),
                wide[::2, ::2],
                np.asfortranarray(m.astype(small)),
                (m + lift).astype(small),
                m + lift,
                m - lift,
            ]
            for form in forms:
                before = form.copy()
                calls = self.reduce_calls(monkeypatch)
                assert_profile(form, p, d + 1, expected)
                assert np.array_equal(form, before)
                # the residue form alone skips the copy into min_scalar_type(p - 1)
                copied = small in calls
                assert copied == (form is not forms[0]), form.dtype
                monkeypatch.undo()


def toeplitz_rank(P, p, k):
    """Rank over GF(p) of P acting on (F_p[y]/(y^k))^m, as an mk x mk matrix.

    Entry ((i, s), (j, r)) is the coefficient of y^(s-r) in P[i, j], zero for
    s < r.
    """
    m = P.shape[0]
    t = np.zeros((m * k, m * k), dtype=np.int64)
    for s in range(k):
        for r in range(s + 1):
            t[s::k, r::k] = P[:, :, s - r]
    return reference_rank(t, p)


def random_polynomial_matrix(rng, m, b, p, density):
    """m x m x b coefficients, each entry zero below a random degree."""
    P = np.zeros((m, m, b), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            low = rng.randrange(b)
            for s in range(low, b):
                if rng.random() < density:
                    P[i, j, s] = rng.randrange(1, p)
    return P


def polynomial_product(A, B, p):
    """A B over F_p[y]/(y^b) for m x m x b coefficient arrays."""
    b = A.shape[2]
    C = np.zeros_like(A)
    for r in range(b):
        C[:, :, r:] += np.einsum("ik,kjs->ijs", A[:, :, r], B[:, :, : b - r])
    return C % p


def random_unimodular(rng, m, b, p):
    """L U with L, U triangular, dense polynomial entries and unit constant diagonal."""
    lower = random_polynomial_matrix(rng, m, b, p, 1.0)
    upper = random_polynomial_matrix(rng, m, b, p, 1.0)
    for i in range(m):
        lower[i, i + 1 :] = upper[i + 1 :, i] = 0
        lower[i, i, 0] = upper[i, i, 0] = 1
    return polynomial_product(lower, upper, p)


class TestSmithValuations:
    # the valuations e_i of P over F_p[y]/(y^b) against the ranks of P on
    # each truncation: sum_i min(e_i, k) = m*k - rank(T_k) for k = 1..b,
    # which fixes how many e_i are at least k, so the multiset of e_i

    @staticmethod
    def check(P, p):
        m, b = P.shape[0], P.shape[2]
        expected = [m * k - toeplitz_rank(P, p, k) for k in range(1, b + 1)]
        vals = gfp.smith_chain_valuations(P.copy(), p, b)
        assert len(vals) == m and all(0 <= e <= b for e in vals), vals
        assert [sum(min(e, k) for e in vals) for k in range(1, b + 1)] == expected, vals
        return vals

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_matrices(self, p):
        rng = random.Random(8600 + p)
        for _ in range(30):
            m, b = rng.randint(1, 5), rng.randint(1, 6)
            self.check(random_polynomial_matrix(rng, m, b, p, rng.random()), p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_prescribed_valuations(self, p):
        # U diag(y^e_i) V with U, V invertible has valuations e_i; the
        # units' dense series make the high coefficients of the quotients
        # matter, where an unreduced factor would overflow
        rng = random.Random(8800 + p)
        for _ in range(20):
            m, b = rng.randint(1, 5), rng.randint(1, 6)
            es = [rng.randint(0, b) for _ in range(m)]
            D = np.zeros((m, m, b), dtype=np.int64)
            for i, e in enumerate(es):
                if e < b:
                    D[i, i, e] = rng.randrange(1, p)
            U, V = random_unimodular(rng, m, b, p), random_unimodular(rng, m, b, p)
            P = polynomial_product(polynomial_product(U, D, p), V, p)
            assert sorted(self.check(P, p)) == sorted(es)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_singular_and_constant(self, p):
        rng = random.Random(8700 + p)
        assert self.check(np.zeros((4, 4, 5), dtype=np.int64), p) == [5] * 4
        # the last row a combination of the others over F_p[y]: one zero
        # diagonal entry, valuation b
        P = random_polynomial_matrix(rng, 4, 5, p, 0.8)
        P[3] = 0
        for i in range(3):
            c = random_polynomial_matrix(rng, 1, 5, p, 1.0)[0, 0]
            for j in range(4):
                P[3, j] = (P[3, j] + np.convolve(c, P[i, j])[:5]) % p
        assert 5 in self.check(P, p)
        # b = 1: a matrix over F_p, whose valuations count its corank
        for _ in range(5):
            P = random_polynomial_matrix(rng, 5, 1, p, rng.random())
            assert self.check(P, p).count(1) == 5 - reference_rank(P[:, :, 0], p)
