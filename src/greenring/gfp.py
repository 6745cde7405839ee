"""Exact linear algebra over GF(p) on numpy integer arrays of the narrowest exact dtype.

Everything here is integer arithmetic; no floating point is used anywhere.
Factors are reduced mod p before they are multiplied, so each product adds
at most (p-1)^2 in magnitude: a d-term dot product, or d rank-1 updates of
one entry, stays within d*(p-1)^2 of its start.  So an array of residues is
held in min_scalar_type(p - 1) (uint8 for p <= 251), and the working copy of
pivot_rows in the narrowest signed dtype holding min(rows, cols)*(p-1)^2 + p
(elimination_dtype: int16 up to 909 columns at p = 7, int32 up to 2064
columns at p = 1021, int64 only for large p*d).  rank_profile reads an N
already held as such residues as it is, with no copy.  Other values are
reduced exactly where a zero test or an inverse needs them.

The oracle decomposes a unipotent matrix from the rank profile of its
displacement N, read off one Krylov elimination of row vectors: the unit
vectors W off lead_set(N) span, with the rows of N, all of F_p^d, and one
elimination of the layers W N^j, deepest first, counts every rank(N^k).
lead_set takes the leading columns of N's rows and eliminates only the rows
that share one, so N itself is never eliminated whole.  There is one
elimination kernel, _pivots, read as pivot_rows: it finds the rows
independent of the rows above them and the leading column of each one's
reduced row, builds no basis, and updates only the rows in the pivot's
column, from the pivot to the last nonzero of the pivot row.  A layer is
a product over N's nonzeros, laid out as a fixed number of slots a column
with the rest spilled to one list (_slots), so the sparse displacements of
induced Jordan actions stay cheap throughout; its column sums are held in
the narrowest unsigned dtype holding N's longest column times (p-1)^2,
uint8 for the induced matrices at p = 7.  A tensor of
Jordan blocks J_a, J_b needs no matrix of its own: its block sizes are the
Smith valuations of an a x a matrix over F_p[Z], by long division by
minimal-valuation pivots (jordan_pair_rank_profile).
"""

from __future__ import annotations

import math

import numpy as np


def jordan_block(r: int) -> np.ndarray:
    """Unipotent r x r Jordan block: ones on the diagonal and superdiagonal."""
    m = np.eye(r, dtype=np.int64)
    m.flat[1 :: r + 1] = 1
    return m


def reduced(m, p: int, dtype) -> np.ndarray:
    """m mod p as a new C-ordered array of the given dtype.

    An m whose entries all lie in 0..p-1 already, checked with one min and
    one max, is cast: np.remainder costs about 4 ns an int64 entry, 1.1 ms
    for the 528 x 528 tensor that decompose reads already reduced, against
    0.25 ms for the check and the cast.  Otherwise
    the remainder is taken in a type that holds both m's entries and p, so no
    int64 or uint64 extreme wraps and no narrow input overflows on p; it is
    cast to dtype a buffer at a time, with no full-size temporary.
    """
    m = np.asarray(m)
    if m.min(initial=0) >= 0 and m.max(initial=0) < p:
        return m.astype(dtype, order="C")
    wide = np.promote_types(m.dtype, np.min_scalar_type(p))
    out = np.empty(m.shape, dtype=dtype)
    return np.remainder(m, wide.type(p), out=out, casting="unsafe")


def elimination_dtype(rows: int, cols: int, p: int) -> np.dtype:
    """The narrowest signed dtype holding min(rows, cols)*(p-1)^2 + p.

    A forward elimination of a rows x cols matrix makes at most
    min(rows, cols) rank-1 updates of each entry, each of at most (p-1)^2,
    before the entry's row is reduced; the entries start in 0..p-1.
    """
    return np.min_scalar_type(-(min(rows, cols) * (p - 1) ** 2 + p))


def pivot_rows(m: np.ndarray, p: int) -> list[int]:
    """Row rank profile of m over GF(p): the rows independent of the rows above.

    The rows read-out of the module's one elimination kernel, _pivots.  The
    number of pivots is the rank of the rows, so a spanning set of a row
    space counts its dimension as a basis would.  The pivots are found by
    forward elimination alone, on a private C-ordered copy of m mod p: no
    basis, no column bookkeeping.  The copy has the dtype elimination_dtype
    gives: int16 for every matrix of d <= 909 at p = 7, so the Krylov stack,
    the largest working array of a decomposition, takes 2 bytes an entry
    rather than 8.
    Row i is reduced mod p when it is reached, and its pivot is its first
    nonzero column; that column is cleared in the rows below i, so when row i
    is reached it is zero in every earlier pivot column, and it is zero as a
    whole exactly when it lies in the span of the rows above.  An update
    touches only the rows below i that are nonzero in the pivot column, and
    in them only the columns from the pivot to the last nonzero of row i: a
    row gather and a contiguous slice, no column index.  It stops at the n-th
    pivot of an n-column m.

    Factors are reduced before they multiply, so each update changes an entry
    by at most (p-1)^2, min(d, n)*(p-1)^2 in all before its row is reached; a
    row with a multiple of p left in the pivot column takes a zero update.
    The multiplier is formed in int64, since a narrow array times a Python
    int keeps the narrow dtype, and cast back once reduced.  If m is no
    taller than wide and its nonzero rows have distinct leading columns (as
    for a Jordan block's Krylov stack), they are independent pivots.
    """
    return _pivots(m, p)[0]


def _pivots(m: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """pivot_rows(m, p) and the leading column of each pivot's reduced row.

    The reduced row of pivot i is row i minus the combination of the pivot
    rows above that clears it in their leading columns, so the leads are
    pairwise distinct and their number is the rank.  Rows that take the
    distinct-lead exit are their own reduced rows.
    """
    d, n = np.shape(m)
    a = reduced(m, p, elimination_dtype(d, n, p))
    if 0 < d <= n:
        rows = np.flatnonzero(a.any(axis=1))
        leads = (a != 0).argmax(axis=1)[rows]
        # not np.unique, whose first call imports numpy.ma (about 13 ms, 1 MB)
        if np.bincount(leads).max(initial=0) <= 1:
            return rows.tolist(), leads.tolist()
    return _eliminate(a, p)


def _eliminate(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """_pivots by its row loop, on its working copy a, which it overwrites."""
    pivots: list[int] = []
    leads: list[int] = []
    for i in range(len(a)):
        row = a[i]
        row %= p
        support = row.nonzero()[0]
        if not len(support):
            continue
        j = support[0]
        pivots.append(i)
        leads.append(int(j))
        if len(pivots) == a.shape[1]:
            break
        below = a[i + 1 :, j]
        rows = below.nonzero()[0]
        if len(rows):
            inv = pow(int(row[j]), -1, p)
            factor = (below[rows].astype(np.int64) * inv % p).astype(a.dtype)
            span = slice(j, support[-1] + 1)
            rows += i + 1
            a[rows, span] -= factor[:, None] * row[span]
    return pivots, leads


def lead_set(n: np.ndarray, p: int) -> np.ndarray:
    """Columns S such that the unit vectors off S and the rows of n span F_p^d.

    n is d x d with entries 0..p-1; S is returned as a mask.  Among the
    nonzero rows of n, the first row on each distinct leading column (by a
    stable sort) owns that column; the other nonzero rows, the colliders,
    are eliminated by _pivots, and S is the owners' leads together with the
    leading columns of the colliders' reduced pivot rows.  Each column of S
    is then the leading column of some vector of rowspace(n); one such
    vector per column of S and the unit vectors on the columns outside S
    have pairwise distinct leads, so they form a triangular basis of F_p^d.
    Those vectors are independent, so S has at most rank(n) columns; it has
    fewer only when a collider's pivot lead is an owned column.  It has
    exactly rank(n) columns for Jordan blocks and for J_a x J_b with a <= b
    (for a > b it leaves a free columns where b would do), and within a few
    of rank(n) for the dense conjugates measured.  Only the rows that share
    a leading column are eliminated: none for a Jordan block, a few for the
    induced matrices the oracle decomposes, about all of them for a dense n.
    """
    led = np.zeros(len(n), dtype=bool)
    rows = np.flatnonzero(n.any(axis=1))
    if not len(rows):
        return led
    leads = (n != 0).argmax(axis=1)[rows]
    order = np.argsort(leads, kind="stable")
    first = np.diff(leads[order], prepend=-1) != 0
    owned = np.zeros(len(rows), dtype=bool)
    owned[order[first]] = True
    led[leads[owned]] = True
    colliders = rows[~owned]
    if len(colliders):
        led[_pivots(n[colliders], p)[1]] = True
    return led


# cells of one chunk of the layer product, whose buffers take a few bytes a cell
_PRODUCT_CELLS = 1 << 18


def _slots(n: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.dtype]:
    """N's nonzeros as the cells of rank_profile's layer product.

    A layer's next layer at column c is the sum over N's nonzeros N[r, c] of
    layer[:, r] * N[r, c].  A k x d slot table holds the first k nonzeros of
    each column, row index and value, slot-major; an empty slot points at the
    zero pad column d of the layer with value 0.  The nonzeros past a
    column's k-th spill over into one list.  index and vals hold the table,
    flattened, then the spill; spill holds the column of each spilled cell.
    k = min(longest column, max(1, 2 nnz // d)), so the table has at most
    2 nnz + d cells: k = 1 for a Jordan block, 3 for the induced tensors and
    squares, d for a dense N.

    wide is the narrowest unsigned dtype holding the longest column's count
    times (p-1)^2, the most a column of the product sums to, and p: uint8 at
    p = 7 up to seven nonzeros a column, uint16 for a dense N at p = 7.
    """
    d = len(n)
    cols, rows = np.nonzero(n.T)
    counts = np.bincount(cols, minlength=d)
    longest = int(counts.max(initial=0))
    k = min(longest, max(1, 2 * len(rows) // max(1, d)))
    wide = np.min_scalar_type(max(1, longest) * (p - 1) ** 2)
    values = n[rows, cols]
    # the position of each nonzero in its column: nonzero lists them by column
    rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[cols]
    slot = rank < k
    index = np.full((k, d), d, dtype=np.intp)
    vals = np.zeros((k, d), dtype=wide)
    index[rank[slot], cols[slot]] = rows[slot]
    vals[rank[slot], cols[slot]] = values[slot]
    return (
        np.concatenate([index.ravel(), rows[~slot]]),
        np.concatenate([vals.ravel(), values[~slot]], dtype=wide),
        cols[~slot],
        wide,
    )


def rank_profile(n_mat: np.ndarray, p: int, max_k: int) -> list[int]:
    """[rank(N^0), rank(N^1), ..., rank(N^max_k)] for a square N with N^max_k = 0.

    Any other N raises ValueError, as do a matrix that is not square and
    2-D and a negative max_k: the oracle decomposes only modules of the
    cyclic group of order q, whose N has N^q = 0, and refuses the rest.
    N is never written.  A C-ordered array of min_scalar_type(p - 1) with
    every entry below p, as decompose passes it, is read as it is, at the
    cost of one max; any other N is reduced into a new array of that dtype.

    Read off one Krylov elimination of row vectors times N.  The unit
    vectors W off lead_set(N) and the row space V N of N span V = F_p^d.
    For nilpotent N, unrolling V = W + V N gives
    V N^k = span{w N^j : j >= k}.  The layers W N^j, zero rows dropped, are
    stacked deepest first and eliminated once by pivot_rows; a pivot is a
    row independent of the rows above it, so the pivots in the layers
    j >= k count rank(N^k) exactly.  W may hold more than d - rank(N)
    vectors; that adds Krylov rows, not error.

    The layers are multiplied by N at most min(max_k, d) times.  A layer
    still nonzero at that depth shows N^max_k != 0, or, when max_k >= d, N^d != 0, which a
    nilpotent d x d matrix never has; it raises before any elimination.
    Otherwise every w dies by then, but N may still be invertible on a
    nonzero part: for N = 1, W is empty.  The layers of a nilpotent N span
    V, so fewer than d pivots show that N is not nilpotent, and that raises
    too.  N^max_k = 0 passes both tests, so exactly the N with
    N^max_k = 0 return.

    The stack has a row per w and power of N leaving it nonzero: d rows for
    Jordan blocks, about 1.5 d for induced tensors and squares, but up to
    #blocks x index for dense conjugates P J P^-1 with skewed block sizes.
    A layer is the one before times N over the cells of _slots, a chunk of
    rows at a time: one np.take of the layer at the cells' rows, one
    np.multiply by their values, one sum over each column's k slots, one
    np.add.at of the spilled cells if a column is longer than k, and one
    np.remainder into the next layer.  Each layer carries a zero pad column
    d, where the empty slots point.  A chunk has _PRODUCT_CELLS // cells
    rows, so a dense N, with d slots a column, makes no rows x d^2
    temporary.  A column of N with c nonzeros sums c products of residues,
    at most c*(p-1)^2, so the sums are exact in the wide dtype of _slots and
    are reduced once.  The spill keeps one long column from widening the
    table for all: a shift of d = 600 with a full last column has 3 slots
    a column and 596 spilled cells, 2,396 cells in all, where 600 slots a
    column would be 360,000.
    """
    shape = np.shape(n_mat)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"rank_profile needs a square matrix, got shape {shape}")
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    d = shape[0]
    # every array kept here holds entries 0..p-1 in the smallest dtype that
    # fits; the eliminations make signed copies
    small = np.min_scalar_type(p - 1)
    n = n_mat
    if not (
        type(n) is np.ndarray
        and n.dtype == small
        and n.flags.c_contiguous
        and n.max(initial=0) < p
    ):
        n = reduced(n_mat, p, small)
    # each layer carries a zero pad column d, where the empty slots point
    layer = np.eye(d, d + 1, dtype=small)[~lead_set(n, p)]
    index, vals, spill, wide = _slots(n, p)
    cells = len(index)
    table = cells - len(spill)
    depth = min(max_k, d)
    # the product has a column per cell, so it is formed a chunk of rows at
    # a time in buffers sized for the first layer, the tallest
    chunk = max(1, min(len(layer), _PRODUCT_CELLS // max(1, cells)))
    picked = np.empty((chunk, cells), dtype=small)
    terms = np.empty((chunk, cells), dtype=wide)
    sums = np.empty((chunk, d), dtype=wide)
    # the spilled cells' places in sums, flattened, for every row of a chunk
    spots = (spill + d * np.arange(chunk)[:, None]).ravel()
    modulus = wide.type(p)
    layers = [layer]
    while layer.shape[0]:
        if len(layers) > depth:
            raise ValueError(f"N^{max_k} is not zero")
        nxt = np.zeros(layer.shape, dtype=small)
        for at in range(0, len(layer), chunk):
            m = min(chunk, len(layer) - at)
            layer[at : at + m].take(index, axis=1, out=picked[:m], mode="clip")
            np.multiply(picked[:m], vals, out=terms[:m])
            np.add.reduce(terms[:m, :table].reshape(m, table // d, d), axis=1, dtype=wide, out=sums[:m])
            if len(spill):
                flat = terms[:m, table:].reshape(-1)
                np.add.at(sums[:m].reshape(-1), spots[: len(flat)], flat)
            np.remainder(sums[:m], modulus, out=nxt[at : at + m, :d], casting="unsafe")
        layer = nxt[nxt.any(axis=1)]
        layers.append(layer)
    pivots = pivot_rows(np.vstack([x[:, :d] for x in layers[::-1]]), p)
    if len(pivots) < d:
        raise ValueError(f"N^{max_k} is not zero")
    # found[k]: the pivots in the layers j >= k, which come first; the last
    # layer is empty
    found = np.searchsorted(pivots, np.cumsum([len(x) for x in layers[::-1]]))[::-1]
    return found[np.minimum(np.arange(max_k + 1), len(layers) - 1)].tolist()


def smith_chain_valuations(P: np.ndarray, p: int, b: int) -> list[int]:
    """Diagonal y-valuations of a square matrix over F_p[y]/(y^b).

    P: int64 of shape (m, m, b), coefficients 0..p-1 on the last axis; it is
    destroyed.  A zero diagonal entry has valuation b.

    Each step swaps an entry of minimal valuation e into the pivot and
    clears its column below by long division: step s subtracts y^s times the
    pivot row, scaled to clear degree e + s, so the division is exact and no
    quotient is formed.  With factors reduced, each of the at most b steps
    changes an entry by at most (p-1)^2 before its row is reduced: b*(p-1)^2
    is about 2.1e9 at the order cap, inside int64.  Valuations never
    decrease, so the rest is kept divided by y^base, base those found so far.
    """
    m = P.shape[0]
    vals = [b] * m
    base = 0
    for t in range(m):
        blen = b - base  # logical polynomial length of the shifted submatrix
        nz = P[t:, t:, :blen] != 0
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
        rows = t + 1 + np.flatnonzero(P[t + 1 :, t, :blen].any(axis=1))
        if rows.size:
            # gather the rows to clear, divide them by the pivot row, scatter back
            inv = pow(int(P[t, t, e]), -1, p)
            row = P[t, t:, :blen]
            block = P[rows, t:, :blen]
            for s in range(blen - e):
                q = block[:, 0, e + s] % p * inv % p
                if q.any():
                    block[:, :, s:] -= q[:, None, None] * row[None, :, : blen - s]
            P[rows, t:, :blen] = block % p
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
