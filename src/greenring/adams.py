"""Adams operations on the Green ring for exponents coprime to p.

The n-th operation is computed on basis modules by a level recursion that
needs no ring multiplication: writing s = k q + r with q = p^m the level just
below s and 1 <= r <= q, the value on V_s is a sum of k + 1 spreads,

    psi(V_s) = sum over j = 0..k of spread(o_j q, psi(V_r))      for k - j even,
                                    spread(o_j q, psi(V_{q-r}))  for k - j odd,

where o_j = fold_exponent(j n) folds the offsets into 0..p-1 through the
dihedral symmetry of period 2p.  Consecutive values of one parity of k share
all but their two newest spreads, which gives the level identity

    psi(V_{kq+r}) = psi(V_{(k-2)q+r}) + spread(o_k q, psi(V_r))
                    + spread(o_{k-1} q, psi(V_{q-r})),

with psi(V_r) at k = 0 and 0 at k = -1.

There are two routes, one per job:

- adams_basis (and adams, for products and single values) runs the sum
  above for one value, adding its spreads straight into one accumulator
  dict, so a value costs time in the supports involved, not in q.  It
  memoizes each value per context under its folded exponent, so the memo
  holds no exponent >= p.
- the table kernel _table runs the level identity for every value of one
  fold class at once.  It has three readers: adams_table (the `table`
  command), which leaves the values in the memo; the suites' one walk over
  the fold classes, which builds one table per class for all five exponent
  sweeps, reads it also as _reflected's dense rows, and leaves the memo as
  it found it; and, through adams_table, the memo, which adams_basis hits.  A
  level is a pair of dense int32 arrays per block of r, and each step k is
  two slice additions, one per spread.  Every block works in views of one
  working set (the two accumulator planes and a read-out buffer) that the
  table allocates once, sized for its largest block: an array of 128 KiB
  or more is mapped afresh on each allocation, so arrays made per block
  would fault their pages in again on every block (about 3,300 minor
  faults for a cold (2,10) table, against about 200).  A spread never
  writes one index twice, so a slice addition is exact.  A value at level
  m + 1 is a sum of at most p spreads of values at levels <= m, each
  adding at most one term to an index, so by induction every multiplicity
  of a value on V_s, and of each partial sum the arrays hold, is at most
  p^level(s) <= q in magnitude: int32 is exact far beyond the order cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain

from .core import (
    GreenElement,
    RingContext,
    _check_context,
    _check_support,
    _integer,
    _unit_terms,
    basis_element,
    multiply,
    one,
    ring_generator,
    zero,
)
from .errors import DivisibilityError, IndexRangeError
from .polynomials import dickson_first

# after the package's own modules: the benchmark worker, having imported
# greenring and greenring.cli, is ready at gc.get_count() (482, 10, 4) this
# way and at (685, 10, 4) with numpy first, which brings its first
# generation-1 collection of the cyclic collector (about 1.5 ms) about 200
# allocations sooner, into the first ring operations
import numpy as np

_CACHE: dict[tuple[int, int], dict[tuple[int, int], GreenElement]] = {}


def _context_cache(ctx: RingContext) -> dict[tuple[int, int], GreenElement]:
    return _CACHE.setdefault((ctx.p, ctx.nu), {})


def clear_cache(ctx: RingContext | None = None) -> None:
    """Drop memoized Adams values (all contexts when ctx is None)."""
    if ctx is None:
        _CACHE.clear()
    else:
        _CACHE.pop((ctx.p, ctx.nu), None)


def fold_exponent(ctx: RingContext, c: int) -> int:
    """Fold c into its representative in 1..p-1 with c = +-fold (mod 2p).

    The representative is unique; 0 folds to 0, and exponents divisible by p
    (other than 0) are rejected.
    """
    c = _integer(c, "exponent")
    if c < 0:
        raise DivisibilityError(f"exponent must be non-negative, got {c}")
    if c == 0:
        return 0
    if c % ctx.p == 0:
        raise DivisibilityError(f"exponent {c} is divisible by p = {ctx.p}")
    m = c % (2 * ctx.p)
    return m if m < ctx.p else 2 * ctx.p - m


def spread(ctx: RingContext, m: int, i: int, w: GreenElement) -> GreenElement:
    """Spreading map at level m and offset i: V_r -> V_{ip^m+r} - V_{ip^m-r}.

    Takes the subring spanned by V_1..V_{p^m} into the one spanned by
    V_1..V_{p^(m+1)}; offset 0 is the identity.  Costs O(support of w).
    """
    m, i = _integer(m, "level"), _integer(i, "offset")
    if not 0 <= m <= ctx.nu - 1:
        raise IndexRangeError(f"level {m} outside 0..{ctx.nu - 1}")
    if not 0 <= i <= ctx.p - 1:
        raise IndexRangeError(f"offset {i} outside 0..{ctx.p - 1}")
    pm = _check_support(ctx, m, w)
    if i == 0 or not w.terms:
        return w
    acc: dict[int, int] = {}
    _spread_into(acc, i * pm, w.terms)
    return GreenElement._from_dict(ctx, acc)


def _spread_into(acc: dict[int, int], base: int, terms: tuple[tuple[int, int], ...]) -> None:
    """Add the spread of terms about base = i p^m into acc: +c at base + r, -c at base - r.

    The terms lie in 1..p^m; base 0 (offset 0) adds them unchanged.  Otherwise
    base - r >= 0, and it is 0 (V_0 = 0, so the term is dropped) exactly when
    r = base, that is i = 1 and r = p^m.
    """
    get = acc.get
    if not base:
        for r, c in terms:
            acc[r] = get(r, 0) + c
        return
    for r, c in terms:
        t = base + r
        acc[t] = get(t, 0) + c
        if r != base:
            t = base - r
            acc[t] = get(t, 0) - c


@lru_cache(maxsize=64)
def _spread_offsets(ctx: RingContext, n: int) -> tuple[int, ...]:
    """fold_exponent(ctx, j n) for j = 0..p-1: the offsets of the recursion for n.

    n is coprime to p, so no j n with 0 < j < p is divisible by p.
    """
    return tuple(fold_exponent(ctx, j * n) for j in range(ctx.p))


def _adams_basis(ctx: RingContext, n: int, s: int) -> GreenElement:
    cache = _context_cache(ctx)
    key = (n, s)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if s == 1:
        value = basis_element(ctx, 1)
    else:
        m = ctx.level(s) - 1
        q = ctx.p**m
        k = (s - 1) // q
        r = s - k * q
        on_r = _adams_basis(ctx, n, r).terms
        on_comp = _adams_basis(ctx, n, q - r).terms if q - r >= 1 else ()
        acc: dict[int, int] = {}
        # offset j spreads the value on V_r when k - j is even, on V_{q-r} when odd
        for target, first in ((on_r, k % 2), (on_comp, 1 - k % 2)):
            if target:
                for i in _spread_offsets(ctx, n)[first : k + 1 : 2]:
                    _spread_into(acc, i * q, target)
        value = GreenElement._from_dict(ctx, acc)
    cache[key] = value
    return value


def adams_basis(ctx: RingContext, n: int, s: int) -> GreenElement:
    """The n-th Adams operation applied to the basis module V_s.

    Requires p not dividing n.  The exponent is folded into 1..p-1 first:
    the recursion reads n only through the folded offsets fold_exponent(j n),
    so the value and its memo key depend on n only through its fold class.
    The suites check that period and reflection against the closed form of
    Almkvist and Fossum at the raw exponent.
    """
    n = fold_exponent(ctx, _check_exponent(ctx, n))
    return _adams_basis(ctx, n, ctx.check_index(s))


def _check_exponent(ctx: RingContext, n: int) -> int:
    """n as an int, after checking that it is an integer >= 1 that p does not divide."""
    n = _integer(n, "exponent")
    if n < 1:
        raise DivisibilityError(f"exponent must be >= 1, got {n}")
    if n % ctx.p == 0:
        raise DivisibilityError(
            f"exponent {n} divisible by p = {ctx.p} is not supported"
        )
    return n


# A block of r has as many rows as keep each working array near this many
# int32 cells (128 KiB), and the rows of as many steps k as fit in the same
# size are read out together: the temporaries of a table then stay small next
# to the table itself, and a numpy call is never spent on one short row.
_BLOCK_CELLS = 1 << 15


def adams_table(ctx: RingContext, n: int) -> list[GreenElement]:
    """The n-th Adams operation on V_1..V_q, in order, computed level by level.

    Requires p not dividing n; the exponent is folded as in adams_basis.
    Every value is left in the memo, and a value already memoized is
    returned as that same object, so adams_basis after a table is a cache
    hit.  The values come from _table unless all of them are memoized.
    """
    n = fold_exponent(ctx, _check_exponent(ctx, n))
    cache = _context_cache(ctx)
    memo = [cache.get((n, s)) for s in range(1, ctx.order + 1)]
    if all(v is not None for v in memo):
        return memo
    return [cache.setdefault((n, s), v) for s, v in enumerate(_table(ctx, n), 1)]


def _table(ctx: RingContext, f: int) -> list[GreenElement]:
    """The f-th Adams operation on V_1..V_q, in order, for f folded into 1..p-1.

    The table kernel: it neither reads nor fills the memo.  Each level runs
    the level identity of the module docstring on dense int32 blocks of r,
    two slice additions per step k; multiplicities stay within q in
    magnitude, so int32 is exact.  Every block works in views of one working
    set, allocated once per call and sized for the largest block, since an
    array of 128 KiB or more is mapped afresh on each allocation and would
    fault its pages in again on every block.
    """
    p = ctx.p
    blocks = []  # (q, lo, h, steps): the h rows r = lo..lo+h-1 of level q
    plane = out = 0  # int32 cells of the largest accumulator plane and read-out
    q = 1
    while q < ctx.order:
        width = p * q + 1
        rows = max(1, min(q, _BLOCK_CELLS // width))
        for lo in range(1, q + 1, rows):
            h = min(rows, q + 1 - lo)
            steps = max(1, min(p - 1, _BLOCK_CELLS // (h * width)))
            blocks.append((q, lo, h, steps))
            plane, out = max(plane, h * width), max(out, steps * h * width)
        q *= p
    planes, readout = np.empty(2 * plane, np.int32), np.empty(out, np.int32)
    offsets = _spread_offsets(ctx, f)
    units = _unit_terms(ctx.order)
    table = [basis_element(ctx, 1)] + [None] * (ctx.order - 1)
    for q, lo, h, steps in blocks:
        _level_block(ctx, table, offsets, units, q, lo, lo + h, steps, planes, readout)
    return table


def _level_block(ctx: RingContext, table: list, offsets: tuple[int, ...], units: list,
                 q: int, lo: int, hi: int, steps: int,
                 planes: np.ndarray, readout: np.ndarray) -> None:
    """Fill table[s - 1] for s = k q + r, k = 1..p-1 and lo <= r < hi.

    table holds the values on V_1..V_q.  The accumulators are a view of
    planes and the rows of up to steps steps k are read out through a view
    of readout, flat int32 arrays large enough for both.
    """
    p, h, width = ctx.p, hi - lo, ctx.p * q + 1  # column t holds V_t, for t = 0..pq
    empty = zero(ctx)
    on_r = _reflected(table[lo - 1 : hi - 1], q)
    on_comp = _reflected([table[q - r - 1] if r < q else empty for r in range(lo, hi)], q)
    acc = planes[: 2 * h * width].reshape(2, h, width)
    acc.fill(0)
    acc[0, :, 1 : q + 1] = on_r[:, q + 1 :]
    out = readout[: steps * h * width].reshape(steps, h, width)
    for k in range(1, p):
        a = acc[k % 2]  # psi(V_{(k-2)q+r}), turned into psi(V_{kq+r})
        base = offsets[k] * q
        a[:, base - q : base + q + 1] += on_r
        base = offsets[k - 1] * q
        if base:
            a[:, base - q : base + q + 1] += on_comp
        else:
            a[:, 1 : q + 1] += on_comp[:, q + 1 :]
        j = (k - 1) % steps
        out[j] = a
        if j == steps - 1 or k == p - 1:
            # column 0 collected the V_0 = 0 terms of spreads at offset 1
            out[: j + 1, :, 0] = 0
            values = _block_elements(ctx, out[: j + 1], units)
            for i, kk in enumerate(range(k - j, k + 1)):
                table[kk * q + lo - 1 : kk * q + hi - 1] = values[i * h : (i + 1) * h]


def _reflected(values: list[GreenElement], q: int) -> np.ndarray:
    """One int32 row of width 2q + 1 per value supported on V_1..V_q.

    A term c V_t puts c at column q + t and -c at column q - t, so adding the
    row at columns base - q .. base + q of an array indexed by V_t adds
    spread(base, value): +c V_{base+t} - c V_{base-t}.
    """
    sizes = [len(v.terms) for v in values]
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(v.terms for v in values)),
                       np.int64, 2 * sum(sizes))
    at, t, c = np.repeat(np.arange(len(values)), sizes), flat[0::2], flat[1::2]
    out = np.zeros((len(values), 2 * q + 1), np.int32)
    out[at, q + t] = c
    out[at, q - t] = -c
    return out


def _block_elements(ctx: RingContext, block: np.ndarray, units: list) -> list[GreenElement]:
    """The elements whose multiplicities are the rows of block, column t for V_t.

    block is C-contiguous, of any number of dimensions, each of its rows of
    the last axis one element, and column 0 is zero.  Terms of multiplicity
    +-1 are the shared pairs of units (see core._unit_terms).
    """
    width = block.shape[-1]
    flat = block.reshape(-1)
    # flat positions of a bool mask: numpy's nonzero is much slower on 2-D or int input
    at = np.flatnonzero(flat != 0)
    coef = flat[at]
    cols = at % width
    terms = list(map(units.__getitem__, (2 * cols + (coef < 0)).tolist()))
    for i in np.flatnonzero(np.abs(coef) > 1).tolist():
        terms[i] = (int(cols[i]), int(coef[i]))
    terms = tuple(terms)
    ends = np.searchsorted(at, np.arange(width, flat.size + 1, width)).tolist()
    return [GreenElement._from_terms(ctx, terms[a:b]) for a, b in zip([0] + ends, ends)]


def adams(ctx: RingContext, n: int, w: GreenElement) -> GreenElement:
    """The n-th Adams operation, extended Z-linearly to any element.

    Requires p not dividing n, checked once per call, for the zero element
    too; the exponent is folded as in adams_basis.
    """
    _check_context(ctx, w)
    n = fold_exponent(ctx, _check_exponent(ctx, n))
    if len(w.terms) == 1 and w.terms[0][1] == 1:
        # a basis module: the memoized value itself rather than a copy of it
        return _adams_basis(ctx, n, w.terms[0][0])
    acc: dict[int, int] = {}
    for s, c in w.terms:
        for t, v in _adams_basis(ctx, n, s).terms:
            acc[t] = acc.get(t, 0) + c * v
    return GreenElement._from_dict(ctx, acc)


def adams_on_generator(ctx: RingContext, n: int, m: int) -> GreenElement:
    """Exterior-series Adams operation on the level-m ring generator.

    Valid for every n >= 1, including multiples of p: the value is the
    first-kind Dickson polynomial of index n evaluated at the generator.
    """
    n = _integer(n, "exponent")
    if n < 1:
        raise DivisibilityError(f"exponent must be >= 1, got {n}")
    x = ring_generator(ctx, m)
    return dickson_first(n).evaluate(x, one(ctx), multiply)


class ShapeClause(Enum):
    """First violated clause of the alternating-shape law, if any."""

    COEFFICIENTS = "coefficients"
    ALTERNATION = "alternation"
    INDEX_BOUND = "index_bound"
    PARITY = "parity"


@dataclass(frozen=True)
class ShapeVerdict:
    ok: bool
    violated: ShapeClause | None
    element: GreenElement


def signs_alternate(value: GreenElement) -> bool:
    """The sign clause of the shape law, read in descending index order.

    True iff the first multiplicity is +1 and no two neighbours are equal,
    which for multiplicities of magnitude 1 means the signs alternate; the
    zero element passes.
    """
    signs = [c for _, c in reversed(value.terms)]
    return not signs or (signs[0] == 1 and all(a != b for a, b in zip(signs, signs[1:])))


def shape_check(ctx: RingContext, n: int, s: int) -> ShapeVerdict:
    """Check the structural law for the value on V_s (see _shape_violation)."""
    value = adams_basis(ctx, n, s)
    violated = _shape_violation(ctx, n, s, value)
    return ShapeVerdict(violated is None, violated, value)


def _shape_violation(ctx: RingContext, n: int, s: int, value: GreenElement) -> ShapeClause | None:
    """The first clause of the structural law that value, the n-th operation on V_s, breaks.

    Clauses, in order: all multiplicities lie in {-1, 0, 1}; the nonzero
    multiplicities alternate in sign in descending index order starting with
    +1; the largest index is at most p^level(s); indices are all odd when n
    is even, and all of the parity of s when n is odd.  None when all hold.
    """
    terms = value.terms
    if any(abs(c) > 1 for _, c in terms):
        return ShapeClause.COEFFICIENTS
    if not signs_alternate(value):
        return ShapeClause.ALTERNATION
    bound = ctx.p ** ctx.level(s)
    if terms and terms[-1][0] > bound:
        return ShapeClause.INDEX_BOUND
    want = 1 if n % 2 == 0 else s % 2
    if any(r % 2 != want for r, _ in terms):
        return ShapeClause.PARITY
    return None
