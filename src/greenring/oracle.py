"""Ground-truth engine over GF(p): genuine modules as unipotent matrices.

A basis module V_r is realized as a single unipotent Jordan block; tensor,
exterior and symmetric powers are built literally as induced matrices; and
decomposition back into indecomposables reads off the rank profile of the
displacement N = g - 1, whose second differences give the block
multiplicities.  The oracle is ground truth only: the library's
multiplication comes from the closed-form basis products in core, and the
oracle's pair_product and decompose check it independently.
GREENRING_ORACLE_CAP bounds the induced dimension of these matrix routes and
nothing else.

Each job has one route.  A decomposition of an exterior or symmetric power
of a basis module builds the induced matrix and decomposes it, for every
degree and prime; a basis product V_a tensor V_b (pair_product) reads its
rank profile off the grading of V_a tensor V_b, one elimination of at most
min(a, b) columns a degree, with the kernel decompose uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

from . import gfp
from .core import GreenElement, RingContext, _is_integer, env_cap, to_dict
from .core import multiply  # noqa: F401  (greenring.oracle.multiply stays importable)
from .errors import (
    IndexRangeError,
    InvalidModuleError,
    OracleCapacityError,
)

DEFAULT_ORACLE_CAP = 20000
ORACLE_CAP_ENV = "GREENRING_ORACLE_CAP"


def oracle_cap() -> int:
    """Induced-space dimension cap; override with GREENRING_ORACLE_CAP."""
    return env_cap(ORACLE_CAP_ENV, DEFAULT_ORACLE_CAP)


def _check_capacity(size: int) -> None:
    cap = oracle_cap()
    if size > cap:
        raise OracleCapacityError(f"induced dimension {size} exceeds cap {cap}")


def _check_degree(n) -> None:
    if not _is_integer(n) or n < 0:
        raise IndexRangeError(f"degree {n!r} is not an integer >= 0")


@dataclass(frozen=True)
class JordanModule:
    """A genuine module given by its multiset of Jordan block sizes."""

    ctx: RingContext
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = (self.ctx.check_index(b, "block size") for b in self.blocks)
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))

    @property
    def dimension(self) -> int:
        return sum(self.blocks)

    def to_element(self) -> GreenElement:
        terms: dict[int, int] = {}
        for b in self.blocks:
            terms[b] = terms.get(b, 0) + 1
        return GreenElement.from_terms(self.ctx, terms)

    def to_matrix(self) -> np.ndarray:
        d = self.dimension
        g = np.zeros((d, d), dtype=np.int64)
        at = 0
        for b in self.blocks:
            g[at : at + b, at : at + b] = gfp.jordan_block(b)
            at += b
        return g


@dataclass(frozen=True)
class DecompositionReport:
    """Block multiplicities together with the rank profile that produced them."""

    ctx: RingContext
    multiplicities: tuple[tuple[int, int], ...]
    rank_profile: tuple[int, ...]

    def multiplicity(self, r: int) -> int:
        return dict(self.multiplicities).get(r, 0)

    def to_element(self) -> GreenElement:
        return GreenElement.from_terms(self.ctx, dict(self.multiplicities))

    def to_jordan_module(self) -> JordanModule:
        blocks: list[int] = []
        for r, m in self.multiplicities:
            blocks.extend([r] * m)
        return JordanModule(self.ctx, tuple(blocks))

    def to_dict(self) -> dict:
        return {**to_dict(self.to_element()), "rank_profile": list(self.rank_profile)}


def realize(ctx: RingContext, r: int) -> np.ndarray:
    """The r x r unipotent Jordan block realizing V_r."""
    return gfp.jordan_block(ctx.check_index(r))


def _module_matrix(g, p: int, dtype) -> np.ndarray:
    """g mod p as a new square array of dtype: the input check of every matrix route.

    Raises InvalidModuleError unless g is a square integer (not bool) array
    or nested list; a float or bool entry is never truncated.  The entries
    are reduced in a type holding g's dtype and p before they are cast to
    dtype (gfp.reduced), so no uint64 or int64 extreme wraps on the way, and
    later products of them stay small.  The builders keep int64, the dtype
    of the matrices they return; decompose passes min_scalar_type(p - 1).
    """
    g = np.asarray(g)
    if not np.issubdtype(g.dtype, np.integer):  # bool is not an integer dtype
        raise InvalidModuleError(f"matrix entries must be integers, got dtype {g.dtype}")
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidModuleError(f"matrix shape {g.shape} is not square")
    return gfp.reduced(g, p, dtype)


def tensor(ctx: RingContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two module matrices."""
    a, b = _module_matrix(a, ctx.p, np.int64), _module_matrix(b, ctx.p, np.int64)
    _check_capacity(a.shape[0] * b.shape[0])
    out = np.kron(a, b)
    out %= ctx.p
    return out


# index cells of one chunk of the induced-power expansion, whose arrays take
# a few int64s a cell
_POWER_CELLS = 1 << 18


def _expand(
    tuples: np.ndarray, columns: tuple, p: np.int64, alternating: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of the images of these basis tuples: (indices, owner, value).

    columns lists a's nonzeros column by column: their rows and values, and
    each column's count and start.  Each tuple's n factors are expanded one
    at a time over them with np.repeat; a term keeps the row of its tuple
    (owner), its indices so far and its value, a residue.  An exterior term
    drops a repeated index as soon as it appears and is negated once for
    each index above the new one, the parity of the inversions.  The
    indices come back sorted along each row.
    """
    rows, vals, counts, starts = columns
    owner = np.arange(len(tuples))
    index = np.empty((len(tuples), 0), dtype=np.intp)
    value = np.ones(len(tuples), dtype=np.int64)
    odd = np.zeros(len(tuples), dtype=bool)
    for k in range(tuples.shape[1]):
        t = tuples[owner, k]
        per = counts[t]
        term = np.repeat(np.arange(len(t)), per)
        # the place of each term's nonzero in column t of a: its place among
        # the terms of its parent, shifted to the start of the column
        at = np.arange(len(term)) + np.repeat(starts[t] - (np.cumsum(per) - per), per)
        row = rows[at]
        index, owner = index[term], owner[term]
        value = value[term] * vals[at]
        value -= value // p * p
        if alternating:
            keep = ~(index == row[:, None]).any(axis=1)
            odd = odd[term] ^ (np.count_nonzero(index > row[:, None], axis=1) & 1).astype(bool)
            index, owner, value, odd, row = (x[keep] for x in (index, owner, value, odd, row))
        index = np.concatenate([index, row[:, None]], axis=1)
    if alternating:
        value[odd] = p - value[odd]
    index.sort(axis=1)
    return index, owner, value


def _induced_power(
    ctx: RingContext, n: int, a: np.ndarray, alternating: bool
) -> np.ndarray:
    """Induced action of a on the n-th exterior (alternating) or symmetric power.

    a is d x d, reduced mod p (_module_matrix).  The basis is the increasing
    (alternating) or non-decreasing n-tuples of 0..d-1 in lexicographic
    order, and column c is the image of tuple c, the product over its
    entries t of column t of a.  The build is array operations throughout:
    _expand lists each column's terms with their sorted indices, the
    combinatorial number system ranks those among the basis, and one
    np.add.at adds the terms into the int64 result, of which only the
    entries touched are reduced.  The columns are expanded a chunk at a
    time, so that the terms' index arrays, at most the product of the
    factors' column counts times n cells a column, stay within _POWER_CELLS
    cells unless one column alone has more.  S^3 of a dense 16 x 16 matrix,
    3.3 M terms, peaks at its 5.1 MiB result plus about 11.5 MiB.
    """
    p = np.int64(ctx.p)
    d = a.shape[0]
    pick = combinations if alternating else combinations_with_replacement
    # the tuples, and their lexicographic ranks, are those of the n-subsets
    # of 0..top-1: a non-decreasing tuple s is the subset s_k + k
    top = d if alternating else d + n - 1
    size = math.comb(top, n) if top >= 0 else 1
    basis = np.fromiter(
        chain.from_iterable(pick(range(d), n)), dtype=np.intp, count=size * n
    ).reshape(size, n)
    out = np.zeros((size, size), dtype=np.int64)
    if not size:
        return out
    # the rank of the subset c_0 < ... < c_(n-1) is
    # C(top, n) - 1 - sum_k C(top - 1 - c_k, n - k); each term of the sum is
    # binom[n - k, j] for j = top - n + k - c_k in 0..top - n, where
    # binom[m, j] = C(j - 1 + m, m) (0 at j = 0), by the hockey-stick
    # identity a running sum of row m - 1, and at most C(top, n)
    binom = np.zeros((n + 1, top - n + 1), dtype=np.int64)
    if n:
        binom[1] = np.arange(top - n + 1)
    for m in range(2, n + 1):
        np.cumsum(binom[m - 1], out=binom[m])
    # j = d - 1 - s_k + shift[k] for the sorted tuple s
    shift = np.arange(n) - (n - 1) if alternating else np.zeros(n, dtype=np.intp)
    degrees = np.arange(n, 0, -1)
    cols, rows = gfp.column_nonzeros(a)
    counts = np.bincount(cols, minlength=d)
    columns = (rows, a[rows, cols], counts, np.cumsum(counts) - counts)
    # each column's index cells, bounded by the product of its factors'
    # column counts, clipped at the budget
    bound = np.ones(size, dtype=np.int64)
    for k in range(n):
        bound = np.minimum(bound * counts[basis[:, k]], _POWER_CELLS)
    ends = np.cumsum(bound * n)
    flat = out.reshape(-1)
    lo = 0
    while lo < size:
        room = (ends[lo - 1] if lo else 0) + _POWER_CELLS
        hi = max(lo + 1, int(np.searchsorted(ends, room, "right")))
        index, owner, value = _expand(basis[lo:hi], columns, p, alternating)
        rank = size - 1 - binom[degrees, d - 1 - index + shift].sum(axis=1)
        spots = rank * size + owner + lo
        np.add.at(flat, spots, value)
        touched = flat[spots]
        flat[spots] = touched - touched // p * p
        lo = hi
    return out


def wedge(ctx: RingContext, n: int, a: np.ndarray) -> np.ndarray:
    """Induced action on the n-th exterior power (basis: increasing n-subsets)."""
    a = _module_matrix(a, ctx.p, np.int64)
    d = a.shape[0]
    _check_degree(n)
    if n > d:
        raise IndexRangeError(f"exterior degree {n} outside 0..{d}")
    _check_capacity(math.comb(d, n))
    return _induced_power(ctx, n, a, alternating=True)


def sym(ctx: RingContext, n: int, a: np.ndarray) -> np.ndarray:
    """Induced action on the n-th symmetric power (basis: non-decreasing n-multisets)."""
    a = _module_matrix(a, ctx.p, np.int64)
    d = a.shape[0]
    _check_degree(n)
    _check_capacity(math.comb(d + n - 1, n) if n else 1)
    return _induced_power(ctx, n, a, alternating=False)


def _profile_to_report(
    ctx: RingContext, profile: list[int], dimension: int
) -> DecompositionReport:
    q = ctx.order
    mults: list[tuple[int, int]] = []
    total = 0
    for k in range(1, q + 1):
        nxt = profile[k + 1] if k + 1 <= q else 0
        m = profile[k - 1] - 2 * profile[k] + nxt
        if m < 0:
            raise InvalidModuleError("rank profile is not convex")
        if m:
            mults.append((k, m))
            total += k * m
    # the sum telescopes to profile[0] - (q + 1) profile[q], and profile[0]
    # is the dimension, so no profile with rank N^q != 0 passes
    if total != dimension:
        raise InvalidModuleError(
            f"blocks sum to {total}, expected dimension {dimension}"
        )
    return DecompositionReport(ctx, tuple(mults), tuple(profile[: q + 1]))


def decompose(ctx: RingContext, g: np.ndarray) -> DecompositionReport:
    """Jordan block multiplicities of a unipotent matrix over GF(p).

    The multiplicity of the size-k block is the second difference
    rank(N^{k-1}) - 2 rank(N^k) + rank(N^{k+1}) of the displacement
    N = g - 1.  Raises InvalidModuleError unless g is an integer (not bool)
    array or nested list, square, and unipotent with order dividing the
    group order q, that is N^q = 0: gfp.rank_profile refuses any other N
    once a Krylov layer survives to depth min(q, d) or its stack has fewer
    than d pivots, so refusing J_1200 at (7,2) takes about 0.015 s.

    g is reduced into min_scalar_type(p - 1), uint8 for p <= 251, so the
    caller's matrix is the only array of g's width: N is a byte an entry,
    rank_profile reads it with no second copy, and its eliminations, of the
    rows of N that share a leading column and of the Krylov stack, keep
    their copies reduced on write, in int8 for every d at p = 7.
    Decomposing the 22x24 tensor at (7,2) peaks at about 1.6 MiB of traced
    allocations besides g, the 40x45 tensor (d = 1800) at about 14.0 MiB,
    against 2.0 and 24.3 MiB with int16 and int32 eliminations sized for
    min(rows, cols) updates, 2.2 and 25.8 MiB with an int64 layer product as
    well, and 6.9 and 66 MiB with int64 working copies.
    """
    n_mat = _module_matrix(g, ctx.p, np.min_scalar_type(ctx.p - 1))
    d = n_mat.shape[0]
    diag = np.diag_indices(d)
    n_mat[diag] = (n_mat[diag].astype(np.int64) + (ctx.p - 1)) % ctx.p
    try:
        profile = gfp.rank_profile(n_mat, ctx.p, ctx.order)
    except ValueError:
        raise InvalidModuleError(
            "matrix is not unipotent of order dividing the group order"
        ) from None
    return _profile_to_report(ctx, profile, d)


# ---------------------------------------------------------------------------
# basis products, the independent check of core.basis_product

def pair_product(ctx: RingContext, a: int, b: int) -> DecompositionReport:
    """Decomposition of the tensor of the Jordan blocks of sizes a and b.

    Same rank-profile semantics as decompose(tensor(realize(a), realize(b))),
    but the profile is read off the grading of the tensor, whose Krylov
    stack is block-diagonal by degree (gfp.jordan_pair_rank_profile), so no
    ab x ab matrix is built and large blocks stay cheap; the two routes are
    interchangeable and tested against each other.  V_a tensor V_b is
    V_b tensor V_a, so the smaller block size is the width of each degree's
    elimination.
    """
    a, b = ctx.check_index(a), ctx.check_index(b)
    _check_capacity(a * b)
    a, b = min(a, b), max(a, b)
    profile = gfp.jordan_pair_rank_profile(a, b, ctx.p, ctx.order)
    return _profile_to_report(ctx, profile, a * b)


# ---------------------------------------------------------------------------
# decompositions of powers of basis modules

def wedge_decomposition(ctx: RingContext, n: int, r: int) -> DecompositionReport:
    """Decomposition of the n-th exterior power of the basis module V_r.

    Decomposes the literal wedge matrix of V_r, whatever n and p; a degree
    above r gives the zero module.
    """
    a = realize(ctx, r)
    _check_degree(n)
    if n > r:
        return DecompositionReport(ctx, (), (0,) * (ctx.order + 1))
    return decompose(ctx, wedge(ctx, n, a))


def sym_decomposition(ctx: RingContext, n: int, r: int) -> DecompositionReport:
    """Decomposition of the n-th symmetric power of the basis module V_r.

    Decomposes the literal sym matrix of V_r, whatever n and p.
    """
    return decompose(ctx, sym(ctx, n, realize(ctx, r)))
