"""Exact linear algebra over GF(p) on numpy int64 arrays.

Everything here is integer arithmetic; no floating point is used anywhere.
Factors are reduced mod p before they are multiplied, so each product adds
at most (p-1)^2 in magnitude: a d-term dot product, or d rank-1 updates of
one entry, stays within d*(p-1)^2 of its start, far inside int64 for every
prime and dimension the ring contexts and the oracle cap admit.  Other
values are reduced exactly where a zero test or an inverse needs them.

The oracle decomposes a unipotent matrix from the rank profile of its
displacement N, read off the kernel chain ker N, ker N^2, ...: one
Gauss-Jordan elimination of [N; I] gives the image of N, a preimage map and
ker N, and each later level eliminates only the residues against im N of at
most 2(d - r) kernel vectors, r being the rank of N.  Elimination updates
only the rows a pivot column touches, so the sparse displacements of induced
Jordan actions stay cheap throughout.  A tensor of two Jordan blocks needs no
matrix of its own: its block sizes are the Smith valuations of one small
matrix over a truncated polynomial ring (jordan_pair_rank_profile).
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
    the identity, and the columns of e span the column space of m.  e is a
    view of the first columns of the private int64 working copy, reduced mod p
    in place, so no second array of the input's size is allocated; m itself
    is never written.

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
    e = a[:, :c]
    e %= p
    return e, pivots


def rank_profile(n_mat: np.ndarray, p: int, max_k: int) -> list[int]:
    """[rank(N^0), rank(N^1), ..., rank(N^max_k)] for a square matrix N.

    Read off the kernel chain: rank(N^k) = d - dim ker N^k, and
    ker N^(k+1) = ker N + N^-1(ker N^k cap im N).  One column_basis of the
    2d x d matrix [N; I] gives everything the chain needs.  Its pivots in
    the top half are N's pivots piv, and the top of those columns is the
    reduced image basis e (e[piv] = I); their bottom is a preimage map T,
    N T = e.  The other columns have a zero top, and their bottom is a
    basis of ker N.  A vector v lies in im N exactly when its residue
    v[free] - e[free] v[piv] vanishes, free being the rows off piv.

    Each level eliminates [residues; I] over the vectors new to ker N^k and
    the at most d - r earlier ones kept because their residues are
    independent.  The columns with a pivot in the residues are kept; the
    others are null combinations y, which span the new part of
    ker N^k cap im N, and T y[piv] are the vectors new to ker N^(k+1).  The
    chain stops when a level adds nothing or max_k is reached, so the ranks
    of a non-nilpotent N level off at the dimension of its invertible part.

    The vectors of one level are independent, so every product sums at most
    d terms of factors reduced mod p: entries stay within d*(p-1)^2, the
    bound column_basis keeps on [N; I].
    """
    d = n_mat.shape[0]
    ranks = [d]
    if max_k == 0:
        return ranks
    # column_basis makes its own int64 copy; the input needs only 0..p-1
    stacked = np.zeros((2 * d, d), dtype=np.min_scalar_type(p - 1))
    stacked[:d] = n_mat % p
    np.fill_diagonal(stacked[d:], 1)
    basis, pivots = column_basis(stacked, p)
    r = sum(1 for i in pivots if i < d)
    piv = pivots[:r]
    free = np.ones(d, dtype=bool)
    free[piv] = False
    e_free = basis[:d][free, :r]
    t = basis[d:, :r]
    new = basis[d:, r:]
    kept_res = np.zeros((d - r, 0), dtype=np.int64)
    kept_piv = np.zeros((r, 0), dtype=np.int64)
    while new.shape[1]:
        ranks.append(ranks[-1] - new.shape[1])
        if ranks[-1] == 0 or len(ranks) > max_k:
            break
        new_piv = new[piv]
        res = np.hstack([kept_res, (new[free] - e_free @ new_piv) % p])
        at_piv = np.hstack([kept_piv, new_piv])
        eye = np.eye(res.shape[1], dtype=np.int64)
        split, spiv = column_basis(np.vstack([res, eye]), p)
        # pivots in the residue rows: kept; in the identity rows: null
        s = sum(1 for i in spiv if i < d - r)
        kept_res = split[: d - r, :s]
        kept_piv = at_piv @ split[d - r :, :s] % p
        y_piv = at_piv @ split[d - r :, s:] % p
        # only the nonzero rows of y[piv] meet T (a third or so on tensors)
        rows = np.flatnonzero(y_piv.any(axis=1))
        new = t[:, rows] @ y_piv[rows] % p
    ranks += [ranks[-1]] * (max_k + 1 - len(ranks))
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


def smith_chain_valuations(P: np.ndarray, p: int, b: int) -> list[int]:
    """Diagonal y-valuations of a square matrix over F_p[y]/(y^b).

    P has shape (m, m, b), last axis holding polynomial coefficients; it is
    destroyed.  Pivoting always selects a minimal-valuation entry, so every
    division performed is exact.  Zero diagonal entries are reported with
    valuation b.  jordan_pair_rank_profile is the one caller: its valuations
    are the Jordan block sizes of a tensor of two Jordan blocks.

    The minimal valuation is non-decreasing along the elimination, so the
    remaining submatrix is kept divided by y^base (base = sum of valuations
    consumed so far): its polynomials live mod y^(b-base), which shrinks the
    work per step.
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
        P[t, t + 1 :, :] = 0
        if e and t + 1 < m:
            # divide the remaining submatrix by y^e; its valuations are >= e
            P[t + 1 :, t + 1 :, : blen - e] = P[t + 1 :, t + 1 :, e:blen]
            P[t + 1 :, t + 1 :, blen - e :] = 0
            base += e
    return vals


def jordan_pair_rank_profile(a: int, b: int, p: int, max_k: int) -> list[int]:
    """Rank profile of the displacement of a tensor of Jordan blocks J_a, J_b.

    Equivalent to rank_profile on the Kronecker product matrix, but read off
    one Smith form.  With x, y the displacements of J_a, J_b and Y = y(1+x),
    the tensor is F_p[x, Y]/(x^a, Y^b) and its displacement is Z = x + Y.
    Over F_p[Z] that module is free on 1, x, ..., x^(a-1) modulo (Z - x)^b,
    so its Jordan block sizes are the Smith valuations e_i of the a x a
    matrix (Z I - C)^b, C the nilpotent shift, whose entry (i, i+t) is
    (-1)^t C(b, t) Z^(b-t).  No block reaches a + b, since N^(a+b-1) = 0, so
    the valuations over F_p[Z]/(Z^(a+b)) are exact, and
    rank N^k = sum_i max(0, e_i - k).  The cost grows with a.
    """
    n = a + b
    P = np.zeros((a, a, n), dtype=np.int64)
    idx = np.arange(a)
    for t in range(min(a - 1, b) + 1):
        P[idx[: a - t], idx[t:], b - t] = (-1) ** t * math.comb(b, t) % p
    sizes = smith_chain_valuations(P, p, n)
    return [sum(e - k for e in sizes if e > k) for k in range(max_k + 1)]
