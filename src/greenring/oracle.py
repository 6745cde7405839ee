"""Ground-truth engine over GF(p): genuine modules as unipotent matrices.

A basis module V_r is realized as a single unipotent Jordan block; tensor,
exterior and symmetric powers are built literally as induced matrices; and
decomposition back into indecomposables reads off the rank profile of the
displacement N = g - 1, whose second differences give the block
multiplicities.  The oracle is ground truth only: the library's
multiplication comes from the generator ladder in core, and the oracle's
pair_product and decompose check it independently.  GREENRING_ORACLE_CAP
bounds the induced dimension of these matrix routes and nothing else.

Each decomposition of a power of a basis module has one route, fixed by its
input: a square (n = 2) at odd p goes through the chain-ring split of
J_r tensor J_r, which yields both halves at once, and every other power
builds its induced matrix and decomposes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import gfp
from .core import GreenElement, RingContext, env_cap
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


@dataclass(frozen=True)
class JordanModule:
    """A genuine module given by its multiset of Jordan block sizes."""

    ctx: RingContext
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        for b in self.blocks:
            if isinstance(b, bool) or not isinstance(b, (int, np.integer)):
                raise IndexRangeError(f"block size {b!r} is not an integer")
            if not 1 <= b <= self.ctx.order:
                raise IndexRangeError(f"block size {b} outside 1..{self.ctx.order}")
        object.__setattr__(self, "blocks", tuple(sorted(int(b) for b in self.blocks)))

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
        return {
            "p": self.ctx.p,
            "nu": self.ctx.nu,
            "coeffs": {str(r): m for r, m in self.multiplicities},
            "rank_profile": list(self.rank_profile),
        }


def realize(ctx: RingContext, r: int) -> np.ndarray:
    """The r x r unipotent Jordan block realizing V_r."""
    if not 1 <= r <= ctx.order:
        raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
    return gfp.jordan_block(r)


def tensor(ctx: RingContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two module matrices."""
    _check_capacity(a.shape[0] * b.shape[0])
    return gfp.kron_mod(a, b, ctx.p)


def _column_supports(ctx: RingContext, a: np.ndarray) -> list[list[tuple[int, int]]]:
    a = np.asarray(a, dtype=np.int64) % ctx.p
    cols = []
    for t in range(a.shape[1]):
        nz = np.flatnonzero(a[:, t])
        cols.append([(int(i), int(a[i, t])) for i in nz])
    return cols


def _induced_power(
    ctx: RingContext, n: int, a: np.ndarray, alternating: bool
) -> np.ndarray:
    """Induced action of a on the n-th exterior (alternating) or symmetric power.

    An exterior term skips a repeated index and takes the sign of the parity
    of its indices above the new one.
    """
    pick = combinations if alternating else combinations_with_replacement
    basis = list(pick(range(a.shape[0]), n))
    index = {t: i for i, t in enumerate(basis)}
    cols = _column_supports(ctx, a)
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for ci, tup in enumerate(basis):
        terms: list[tuple[list[int], int]] = [([], 1)]
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
    return out % ctx.p


def wedge(ctx: RingContext, n: int, a: np.ndarray) -> np.ndarray:
    """Induced action on the n-th exterior power (basis: increasing n-subsets)."""
    d = a.shape[0]
    if not 0 <= n <= d:
        raise IndexRangeError(f"exterior degree {n} outside 0..{d}")
    _check_capacity(math.comb(d, n))
    return _induced_power(ctx, n, a, alternating=True)


def sym(ctx: RingContext, n: int, a: np.ndarray) -> np.ndarray:
    """Induced action on the n-th symmetric power (basis: non-decreasing n-multisets)."""
    d = a.shape[0]
    if n < 0:
        raise IndexRangeError(f"symmetric degree {n} must be >= 0")
    _check_capacity(math.comb(d + n - 1, n) if n else 1)
    return _induced_power(ctx, n, a, alternating=False)


def _profile_to_report(
    ctx: RingContext, profile: list[int], dimension: int
) -> DecompositionReport:
    q = ctx.order
    if profile[q] != 0:
        raise InvalidModuleError(
            "matrix is not unipotent of order dividing the group order"
        )
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
    group order.
    """
    g = np.asarray(g)
    if not np.issubdtype(g.dtype, np.integer):  # bool is not an integer dtype
        raise InvalidModuleError(f"matrix entries must be integers, got dtype {g.dtype}")
    g = g.astype(np.int64, copy=False)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidModuleError(f"matrix shape {g.shape} is not square")
    d = g.shape[0]
    n_mat = (g - np.eye(d, dtype=np.int64)) % ctx.p
    profile = gfp.rank_profile(n_mat, ctx.p, ctx.order)
    return _profile_to_report(ctx, profile, d)


# ---------------------------------------------------------------------------
# basis products, the independent check of core.basis_product

def pair_product(ctx: RingContext, a: int, b: int) -> DecompositionReport:
    """Decomposition of the tensor of the Jordan blocks of sizes a and b.

    Same rank-profile semantics as decompose(tensor(realize(a), realize(b))),
    computed power-by-power through chain-ring valuations so large blocks
    stay cheap; the two routes are interchangeable and tested against each
    other.
    """
    for r in (a, b):
        if not 1 <= r <= ctx.order:
            raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
    _check_capacity(a * b)
    profile = gfp.jordan_pair_rank_profile(a, b, ctx.p, ctx.order)
    return _profile_to_report(ctx, profile, a * b)


# ---------------------------------------------------------------------------
# cached decompositions of powers of basis modules

_POWER_CACHE: dict[tuple, DecompositionReport] = {}


def _power_decomposition(
    ctx: RingContext, kind: str, n: int, r: int
) -> DecompositionReport:
    if not 1 <= r <= ctx.order:
        raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
    if kind == "wedge" and n > r:
        # exterior degree above the dimension: the zero module
        return DecompositionReport(ctx, (), (0,) * (ctx.order + 1))
    if kind == "wedge":
        size = math.comb(r, n)
    else:
        size = math.comb(r + n - 1, n) if n else 1
    _check_capacity(size)
    key = (ctx.p, ctx.nu, kind, n, r)
    hit = _POWER_CACHE.get(key)
    if hit is not None:
        return hit
    if n == 2 and ctx.p != 2:
        alt, symm = gfp.square_pair_split_profiles(r, ctx.p, ctx.order)
        wedge_report = _profile_to_report(ctx, alt, math.comb(r, 2))
        sym_report = _profile_to_report(ctx, symm, math.comb(r + 1, 2))
        _POWER_CACHE.setdefault((ctx.p, ctx.nu, "wedge", n, r), wedge_report)
        _POWER_CACHE.setdefault((ctx.p, ctx.nu, "sym", n, r), sym_report)
        return wedge_report if kind == "wedge" else sym_report
    build = wedge if kind == "wedge" else sym
    report = decompose(ctx, build(ctx, n, realize(ctx, r)))
    _POWER_CACHE.setdefault(key, report)
    return report


def wedge_decomposition(ctx: RingContext, n: int, r: int) -> DecompositionReport:
    """Decomposition of the n-th exterior power of the basis module V_r.

    One route: the chain-ring split for a square at odd p, else the literal
    wedge matrix.
    """
    return _power_decomposition(ctx, "wedge", n, r)


def sym_decomposition(ctx: RingContext, n: int, r: int) -> DecompositionReport:
    """Decomposition of the n-th symmetric power of the basis module V_r.

    One route: the chain-ring split for a square at odd p, else the literal
    sym matrix.
    """
    return _power_decomposition(ctx, "sym", n, r)
