"""The GF(p) elimination kernels against pure-Python references.

column_basis returns the reduced column-echelon form of the column space,
which is unique: the pivots are the rows that raise the rank of the rows
above them, and e is the one basis of the column space with e[pivots] = I.
So any correct elimination must return exactly the same (e, pivots).
"""

import random

import numpy as np
import pytest

from greenring import gfp

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


def assert_reduced_echelon(m, p, e, pivots, rank):
    assert e.shape == (m.shape[0], rank)
    assert len(pivots) == rank
    assert pivots == sorted(set(pivots))
    assert e.dtype == np.int64
    assert ((e >= 0) & (e < p)).all()
    assert np.array_equal(e[pivots], np.eye(rank, dtype=np.int64))
    for k, i in enumerate(pivots):
        assert not e[:i, k].any()
    # every column of m lies in the span of e, with coordinates m[pivots]
    assert np.array_equal((e @ m[pivots]) % p, m % p)


# (d, n, density): empty, wide, tall, zero, square sparse and dense
SHAPES = [(0, 0, 0.5), (0, 4, 0.5), (4, 0, 0.5), (1, 1, 1.0), (3, 3, 0.0),
          (5, 12, 0.4), (12, 5, 0.4), (9, 9, 0.1), (14, 14, 1.0),
          (20, 17, 0.25), (17, 20, 0.7), (25, 25, 0.05)]


class TestColumnBasis:
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_reference(self, p):
        rng = random.Random(7000 + p)
        for d, n, density in SHAPES:
            for _ in range(3):
                m = random_matrix(rng, d, n, p, density)
                e, pivots = gfp.column_basis(m, p)
                e_ref, pivots_ref = reference_column_basis(m, p)
                assert pivots == pivots_ref
                assert np.array_equal(e, e_ref)
                assert_reduced_echelon(m, p, e, pivots, len(pivots_ref))

    @pytest.mark.parametrize("p", PRIMES)
    def test_known_rank(self, p):
        rng = random.Random(7100 + p)
        for d, n, r in [(10, 10, 0), (10, 10, 4), (8, 15, 8), (15, 8, 3), (12, 12, 12)]:
            m = low_rank_matrix(rng, d, n, r, p)
            e, pivots = gfp.column_basis(m, p)
            e_ref, pivots_ref = reference_column_basis(m, p)
            assert pivots == pivots_ref
            assert np.array_equal(e, e_ref)
            assert_reduced_echelon(m, p, e, pivots, r)

    def test_unreduced_input(self):
        rng = random.Random(7200)
        m = random_matrix(rng, 10, 10, 7, 0.6)
        shifted = m + 7 * np.array(
            [[rng.randrange(-50, 50) for _ in range(10)] for _ in range(10)]
        )
        e, pivots = gfp.column_basis(shifted, 7)
        e_ref, pivots_ref = reference_column_basis(m, 7)
        assert pivots == pivots_ref
        assert np.array_equal(e, e_ref)

    def test_input_untouched(self):
        rng = random.Random(7300)
        m = random_matrix(rng, 12, 12, 5, 0.5)
        before = m.copy()
        gfp.column_basis(m, 5)
        assert np.array_equal(m, before)

    def test_dense_large_prime(self):
        # entries accumulate up to d*(p-1)^2 between reductions: an overflow
        # or a missed reduction would break the echelon form or the span
        p = 1021
        rng = random.Random(7400)
        m = random_matrix(rng, 300, 300, p, 1.0)
        e, pivots = gfp.column_basis(m, p)
        e_ref, pivots_ref = reference_column_basis(m, p)
        assert pivots == pivots_ref
        assert np.array_equal(e, e_ref)
        assert_reduced_echelon(m, p, e, pivots, len(pivots))
        m = low_rank_matrix(rng, 300, 300, 260, p)
        e, pivots = gfp.column_basis(m, p)
        assert_reduced_echelon(m, p, e, pivots, 260)


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


def block_ranks(sizes, max_k):
    return [sum(max(s - k, 0) for s in sizes) for k in range(max_k + 1)]


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

    def test_truncated_and_padded(self):
        rng = random.Random(7700)
        sizes = [5, 3, 3, 1]
        n = conjugated_jordan(rng, sizes, 5)
        assert gfp.rank_profile(n, 5, 0) == [12]
        assert gfp.rank_profile(n, 5, 2) == [12, 8, 5]
        assert gfp.rank_profile(n, 5, 8) == [12, 8, 5, 2, 1, 0, 0, 0, 0]

    def test_not_nilpotent(self):
        eye = np.eye(4, dtype=np.int64)
        assert gfp.rank_profile(eye, 3, 3) == [4, 4, 4, 4]

    def test_empty(self):
        assert gfp.rank_profile(np.zeros((0, 0), dtype=np.int64), 2, 3) == [0, 0, 0, 0]
