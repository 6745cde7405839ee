"""Exact linear algebra over GF(p) on numpy int64 arrays.

Everything here is integer arithmetic; no floating point is used anywhere.
Factors are reduced mod p before they are multiplied, so each product adds
at most (p-1)^2 in magnitude: a d-term dot product, or d rank-1 updates of
one entry, stays within d*(p-1)^2 of its start, far inside int64 for every
prime and dimension the ring contexts and the oracle cap admit.  Other
values are reduced exactly where a zero test or an inverse needs them.

The oracle decomposes a unipotent matrix from the rank profile of its
displacement N, computed by Gauss-Jordan elimination on ever smaller
restrictions of N.  Elimination updates only the rows a pivot column
touches, and each restriction is formed from the rows off the pivots, so the
sparse displacements of induced Jordan actions stay cheap throughout.
"""

from __future__ import annotations

import math

import numpy as np


def mod_inverse(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def jordan_block(r: int) -> np.ndarray:
    """Unipotent r x r Jordan block: ones on the diagonal and superdiagonal."""
    m = np.eye(r, dtype=np.int64)
    for i in range(r - 1):
        m[i, i + 1] = 1
    return m


def kron_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return np.kron(a, b) % p


def column_basis(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced column-echelon basis of the column space of m over GF(p).

    Returns (e, pivots) where e holds one column per pivot, e[pivots, :] is
    the identity, and the columns of e span the column space of m.

    Gauss-Jordan over the rows in order.  Each pivot step clears its row in
    every other column, so when row i is reached every row above it is zero
    in the columns not yet pivoted; the rank-1 update therefore touches only
    the rows where the normalised pivot column is nonzero, at or below i.
    A row is reduced mod p when it is reached; until then each step changes
    its entries by at most (p-1)^2, d*(p-1)^2 in all.
    """
    a = np.array(m, dtype=np.int64)
    d, n = a.shape
    pivots: list[int] = []
    c = 0
    for i in range(d):
        if c == n:
            break
        a[i, :] %= p
        nz = np.flatnonzero(a[i, c:])
        if nz.size == 0:
            continue
        j = c + int(nz[0])
        if j != c:
            a[:, [c, j]] = a[:, [j, c]]
        rows = i + np.flatnonzero(a[i:, c] % p)
        col = (a[rows, c] % p) * mod_inverse(int(a[i, c]), p) % p
        a[rows] -= np.outer(col, a[i, :])
        a[i:, c] = 0
        a[rows, c] = col
        pivots.append(i)
        c += 1
    e = a[:, :c] % p
    return e, pivots


def rank_profile(n_mat: np.ndarray, p: int, max_k: int) -> list[int]:
    """[rank(N^0), rank(N^1), ..., rank(N^max_k)] for a square matrix N.

    Computed on shrinking restrictions: once a reduced basis e of the image
    with pivot rows piv is known, the operator restricted to its own image
    is (M @ e)[piv] in e-coordinates, so the k-th step runs at the current
    rank rather than the ambient dimension.  Since e[piv] is the identity,
    that restriction is M[piv, piv] + M[piv, free] @ e[free], with free the
    rows off the pivots: a product over d - r rows instead of d.
    """
    d = n_mat.shape[0]
    ranks = [d]
    m = np.array(n_mat, dtype=np.int64) % p
    while len(ranks) <= max_k and ranks[-1] > 0:
        e, piv = column_basis(m, p)
        r = len(piv)
        ranks.append(r)
        if r == 0 or len(ranks) > max_k:
            break
        free = np.ones(m.shape[0], dtype=bool)
        free[piv] = False
        e_free = e[free]
        del e
        x = m[np.ix_(piv, np.flatnonzero(free))] @ e_free
        x += m[np.ix_(piv, piv)]
        x %= p
        m = x
    ranks += [0] * (max_k + 1 - len(ranks))
    return ranks


def _series_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a unit power series mod y^len(u), coefficients mod p."""
    n = len(u)
    inv = np.zeros(n, dtype=np.int64)
    u0i = mod_inverse(int(u[0]), p)
    inv[0] = u0i
    for s in range(1, n):
        acc = int(np.dot(u[1 : s + 1], inv[s - 1 :: -1])) % p
        inv[s] = (-u0i * acc) % p
    return inv


def smith_chain_valuations(
    P: np.ndarray, p: int, b: int, aug: np.ndarray | None = None
) -> list[int]:
    """Diagonal y-valuations of a square matrix over F_p[y]/(y^b).

    P has shape (m, m, b), last axis holding polynomial coefficients; it is
    destroyed.  Pivoting always selects a minimal-valuation entry, so every
    division performed is exact.  Row operations are mirrored onto `aug`
    (shape (m, w, b)) when given, which afterwards allows membership tests
    of w vectors against the image of the original matrix.  Zero diagonal
    entries are reported with valuation b.

    The minimal valuation is non-decreasing along the elimination, so the
    remaining submatrix is kept divided by y^base (base = sum of valuations
    consumed so far): its polynomials live mod y^(b-base), which shrinks the
    work per step.  Quotients are valuation-free, so mirroring them onto
    `aug` is unaffected by the shift.
    """
    m = P.shape[0]
    vals = [b] * m
    base = 0
    for t in range(m):
        blen = b - base  # logical polynomial length of the shifted submatrix
        sub = P[t:, t:, :blen]
        nz = sub != 0
        has = nz.any(axis=2)
        if not has.any():
            break
        first = np.where(has, nz.argmax(axis=2), blen)
        e = int(first.min())
        pos = np.argwhere(first == e)[0]
        i0, j0 = t + int(pos[0]), t + int(pos[1])
        if i0 != t:
            P[[t, i0], :, :] = P[[i0, t], :, :]
            if aug is not None:
                aug[[t, i0]] = aug[[i0, t]]
        if j0 != t:
            P[:, [t, j0], :] = P[:, [j0, t], :]
        vals[t] = base + e
        ulen = blen - e
        uinv = _series_inverse(P[t, t, e : e + ulen], p)
        if t + 1 < m:
            fe = P[t + 1 :, t, e : e + ulen]
            # quotient rows: convolution with the inverse unit as one matmul
            conv = np.zeros((ulen, ulen), dtype=np.int64)
            for s in range(ulen):
                conv[s, s:] = uinv[: ulen - s]
            q = (fe @ conv) % p
            rows_nz = np.flatnonzero(q.any(axis=1))
            if rows_nz.size:
                s_idx = np.flatnonzero(q[rows_nz].any(axis=0))
                # gather the affected rows, update them, scatter them back
                row = P[t, t:, :blen]
                block = P[t + 1 + rows_nz, t:, :blen]
                qg = q[rows_nz]
                for s in s_idx:
                    s = int(s)
                    block[:, :, s:] -= qg[:, s][:, None, None] * row[None, :, : blen - s]
                P[t + 1 + rows_nz, t:, :blen] = block % p
                if aug is not None:
                    zrow = aug[t].copy()
                    for s in s_idx:
                        s = int(s)
                        aug[t + 1 :, :, s:] -= q[:, s][:, None, None] * zrow[None, :, : b - s]
                    aug[t + 1 :] %= p
        P[t, t + 1 :, :] = 0
        if e and t + 1 < m:
            # divide the remaining submatrix by y^e; its valuations are >= e
            P[t + 1 :, t + 1 :, : blen - e] = P[t + 1 :, t + 1 :, e:blen]
            P[t + 1 :, t + 1 :, blen - e :] = 0
            base += e
    return vals


def _shift_convolve_polys(k: int, a: int, b: int, p: int) -> np.ndarray:
    """Row polynomials h_i of the k-th power of the tensor displacement.

    In the model where the two Jordan blocks act as multiplication by (1+x)
    and (1+y) on F_p[x, y]/(x^a, y^b), the displacement (product of the two
    generators minus one) raised to the k-th power expands as
    sum_i C(k, i) x^i (1+y)^i y^(k-i); h_i collects the y-polynomial factor
    of x^i, truncated mod y^b.
    """
    h = np.zeros((a, b), dtype=np.int64)
    for i in range(min(k, a - 1) + 1):
        cki = math.comb(k, i) % p
        low = k - i
        if cki == 0 or low >= b:
            continue
        for t in range(min(i, b - 1 - low) + 1):
            h[i, low + t] = (cki * math.comb(i, t)) % p
    return h


def _toeplitz_from_rows(h: np.ndarray, a: int, b: int) -> np.ndarray:
    P = np.zeros((a, a, b), dtype=np.int64)
    for delta in range(a):
        if h[delta].any():
            idx = np.arange(a - delta)
            P[idx + delta, idx] = h[delta]
    return P


def jordan_pair_rank_profile(a: int, b: int, p: int, max_k: int) -> list[int]:
    """Rank profile of the displacement of a tensor of Jordan blocks J_a, J_b.

    Equivalent to rank_profile on the Kronecker product matrix, but computed
    per power through valuations over the chain ring F_p[y]/(y^b): the
    displacement power acts F_p[y]/(y^b)-linearly on the free module of rank
    a, its Smith valuations e_t are exact, and the GF(p)-rank is
    sum_t (b - e_t).
    """
    d = a * b
    ranks = [d]
    kmax = min(a + b - 1, max_k)
    for k in range(1, kmax + 1):
        h = _shift_convolve_polys(k, a, b, p)
        P = _toeplitz_from_rows(h, a, b)
        vals = smith_chain_valuations(P, p, b)
        r = sum(b - v for v in vals)
        ranks.append(r)
        if r == 0:
            break
    # N^(a+b-1) = 0, so a profile that stops early stops at rank 0
    ranks += [0] * (max_k + 1 - len(ranks))
    return ranks


def _diagonal_sum_vectors(r: int, p: int) -> np.ndarray:
    """Membership vectors spanning the annihilator of (x - y) in the square model.

    The annihilator of x - y in F_p[x, y]/(x^r, y^r) is spanned by the full
    homogeneous sums h_c (c = r-1 .. 2r-2), and the displacement acts on them
    by h_c -> 2 h_{c+1} + h_{c+2}; this returns, for j = 0..r-1, the j-th
    displacement power applied to h_{r-1}, laid out as vectors over
    F_p[y]/(y^r): shape (r, r, r) indexed (component i, j, y-power).
    """
    alphas = np.zeros((r, r), dtype=np.int64)
    alphas[0, 0] = 1
    for j in range(1, r):
        prev = alphas[j - 1]
        cur = np.zeros(r, dtype=np.int64)
        cur[1:] += 2 * prev[:-1]
        cur[2:] += prev[:-2]
        alphas[j] = cur % p
    z = np.zeros((r, r, r), dtype=np.int64)
    for o in range(r):
        col = alphas[:, o]
        if not col.any():
            continue
        for i in range(o, r):
            z[i, :, r - 1 + o - i] = (z[i, :, r - 1 + o - i] + col) % p
    return z


def square_pair_split_profiles(
    r: int, p: int, max_k: int
) -> tuple[list[int], list[int]]:
    """Rank profiles of the alternating and symmetric halves of J_r tensor J_r.

    Requires p odd.  The swap involution splits the square tensor into its
    symmetric and alternating summands; the quotient of the tensor by the
    annihilator of (x - y) (a single size-r block spanned by symmetric
    vectors) is isomorphic to two copies of the alternating half.  Hence
    per power k:  alt_rank = (tensor_rank - w_k) / 2  with w_k the dimension
    of the intersection of the image with that annihilator, and the
    symmetric half takes the remainder.
    """
    if p == 2:
        raise ValueError("split profiles require odd p")
    d = r * r
    ranks = [d]
    ws = [r]
    kmax = min(2 * r - 1, max_k)
    zvecs = _diagonal_sum_vectors(r, p)
    for k in range(1, kmax + 1):
        h = _shift_convolve_polys(k, r, r, p)
        P = _toeplitz_from_rows(h, r, r)
        aug = zvecs.copy()
        vals = smith_chain_valuations(P, p, r, aug=aug)
        rank_k = sum(r - v for v in vals)
        j_k = r
        for j in range(r):
            ok = True
            for t in range(r):
                poly = aug[t, j]
                nz = np.flatnonzero(poly)
                if nz.size and int(nz[0]) < vals[t]:
                    ok = False
                    break
            if ok:
                j_k = j
                break
        ranks.append(rank_k)
        ws.append(r - j_k)
        if rank_k == 0:
            break
    # N^(2r-1) = 0, so a profile that stops early stops at rank 0 (and w 0)
    pad = max_k + 1 - len(ranks)
    ranks += [0] * pad
    ws += [0] * pad
    alt = []
    sym = []
    for rank_k, w_k in zip(ranks, ws):
        half, rem = divmod(rank_k - w_k, 2)
        if rem:
            raise AssertionError("split profile parity violated")
        alt.append(half)
        sym.append(rank_k - half)
    return alt, sym
