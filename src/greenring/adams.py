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
  fold class at once.  Its one output is the table's rows in compressed
  sparse row form (_Rows: starts, cols, coefs).  The `table` command and
  adams_table take them through _table_rows, which keeps the class in the
  memo in one form, each term c V_t the key 2 t + (c < 0) (_keyed, which
  raises on a multiplicity other than +-1), and drops the rows: by the
  unit pairs, adams_basis builds a missing value from its row of keys
  (_value) instead of recursing, and the `table` text looks its pieces up
  by the same keys.  The suites' one walk calls _table itself, once per
  fold class for all five exponent sweeps, and builds no element: the
  shape sweep checks the rows (_shape_clauses, which shape_check runs on
  one row), so it reports a kernel that breaks the law clause by clause,
  the other four read a dense view scattered from them, and the walk
  leaves the memo as it found it.  A level is a pair of dense int32 arrays
  per block of r, and each step k is two slice additions, one per spread;
  the values on V_r and V_{q-r} are scattered into the block from the
  lower levels' rows, and the nonzero entries of each read-out become the
  next level's rows, put in order of s once per level.  Every block works
  in views of one working set (the two accumulator planes, a read-out
  buffer and the two scattered inputs) that the table allocates once,
  sized for its largest block: an array of 128 KiB or more is mapped
  afresh on each allocation, so arrays made per block would fault their
  pages in again on every block (about 3,300 minor faults for a cold
  (2,10) table, against about 200).  A spread never writes one index twice,
  so a slice addition is exact.  A value at level m + 1 is a sum of at most
  p spreads of values at levels <= m, each adding at most one term to an
  index, so by induction every multiplicity of a value on V_s, and of each
  partial sum the arrays hold, is at most p^level(s) <= q in magnitude:
  int32 is exact far beyond the order cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

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
)
from .errors import DivisibilityError, IndexRangeError
from .polynomials import dickson_first

# after the package's own modules: the benchmark worker, having imported
# greenring and greenring.cli, is ready at gc.get_count() (482, 10, 4) this
# way and at (685, 10, 4) with numpy first, which brings its first
# generation-1 collection of the cyclic collector (about 1.5 ms) about 200
# allocations sooner, into the first ring operations
import numpy as np


class _Rows(NamedTuple):
    """An Adams table in compressed sparse row form.

    The value on V_s has the terms of index cols[starts[s - 1] : starts[s]],
    ascending, with the multiplicities coefs[starts[s - 1] : starts[s]].
    """

    starts: np.ndarray  # int64, q + 1 entries
    cols: np.ndarray  # int32
    coefs: np.ndarray  # int32


class _Keyed(NamedTuple):
    """A tabled fold class as the memo keeps it: each term of its rows as a key 2 t + (c < 0) for c V_t.

    The value on V_s has the terms with the keys keys[starts[s - 1] :
    starts[s]], ascending.  A key indexes each reader's own table: the
    shared unit pairs core._unit_terms(q) for _value, so a read is one slice
    of keys and one list lookup per term, and the term texts of cli._pieces
    for the `table` text.
    """

    starts: list[int]  # the rows' starts as Python ints, q + 1 of them
    keys: np.ndarray  # int32, one a term


def _keyed(rows: _Rows) -> _Keyed:
    """A table's rows as the memo keeps them, 4 bytes a term; the rows themselves are not kept.

    The one place where a table's rows enter the memo and reach the `table`
    text.  The shape law allows no multiplicity but +-1, so another is a
    kernel fault.
    """
    coefs = rows.coefs
    if ((coefs > 1) | (coefs < -1)).any():
        raise AssertionError("internal consistency failure: an Adams table has a multiplicity other than +-1")
    keys = rows.cols * 2
    keys += coefs < 0
    return _Keyed(rows.starts.tolist(), keys)


class _Memo(dict):
    """One context's memo: {(folded n, s): value}, and in tables {folded n: _Keyed}."""

    __slots__ = ("tables",)

    def __init__(self) -> None:
        super().__init__()
        self.tables: dict[int, _Keyed] = {}


_CACHE: dict[tuple[int, int], _Memo] = {}


def _context_cache(ctx: RingContext) -> _Memo:
    memo = _CACHE.get((ctx.p, ctx.nu))
    if memo is None:
        memo = _CACHE[ctx.p, ctx.nu] = _Memo()
    return memo


def clear_cache(ctx: RingContext | None = None) -> None:
    """Drop memoized Adams values and table rows (all contexts when ctx is None)."""
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
    table = cache.tables.get(n)
    if table is not None:
        value = _value(ctx, table, s)
    elif s == 1:
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
    return _adams_basis(ctx, _folded(ctx, n), ctx.check_index(s))


def _folded(ctx: RingContext, n: int) -> int:
    """n folded into 1..p-1, after checking that it is an integer >= 1 that p does not divide."""
    n = _integer(n, "exponent")
    if n < 1:
        raise DivisibilityError(f"exponent must be >= 1, got {n}")
    if n % ctx.p == 0:
        raise DivisibilityError(
            f"exponent {n} divisible by p = {ctx.p} is not supported"
        )
    return fold_exponent(ctx, n)


# A block of r has as many rows as keep each working array near this many
# int32 cells (128 KiB), and the rows of as many steps k as fit in the same
# size are read out together: the temporaries of a table then stay small next
# to the table itself, and a numpy call is never spent on one short row.
_BLOCK_CELLS = 1 << 15


def adams_table(ctx: RingContext, n: int) -> list[GreenElement]:
    """The n-th Adams operation on V_1..V_q, in order, computed level by level.

    Requires p not dividing n; the exponent is folded as in adams_basis.
    The table's rows are left in the memo (_table_rows) and every value is
    read through it, so each is memoized, and a value already memoized is
    returned as that same object.
    """
    n = _folded(ctx, n)
    _table_rows(ctx, n)
    return [_adams_basis(ctx, n, s) for s in range(1, ctx.order + 1)]


def _table_rows(ctx: RingContext, f: int) -> _Keyed:
    """The rows of the f-th operation's table, f folded: the memo's, else _table's, left in the memo."""
    tables = _context_cache(ctx).tables
    keyed = tables.get(f)
    if keyed is None:
        keyed = tables[f] = _keyed(_table(ctx, f))
        # the unit pairs _value reads keys by, built with the table rather than by its first read
        _unit_terms(ctx.order)
    return keyed


def _value(ctx: RingContext, table: _Keyed, s: int) -> GreenElement:
    """The value on V_s as an element, read from a table's row by the shared unit pairs: the one maker of elements from the rows."""
    starts, keys = table
    units = _unit_terms(ctx.order)
    return GreenElement._from_terms(ctx, tuple(map(units.__getitem__, keys[starts[s - 1] : starts[s]].tolist())))


def _table(ctx: RingContext, f: int) -> _Rows:
    """The rows of the f-th Adams operation on V_1..V_q, for f folded into 1..p-1.

    The table kernel: it neither reads nor fills the memo.  Each level runs
    the level identity of the module docstring on dense int32 blocks of r,
    two slice additions per step k, and keeps the nonzero entries of each
    read-out as pieces of the next level's rows, put in order of s and
    joined to the rows once per level.  Multiplicities stay within q in
    magnitude, so int32 is exact.  Every block works in views of one working
    set, allocated once per call and sized for the largest block, since an
    array of 128 KiB or more is mapped afresh on each allocation and would
    fault its pages in again on every block.
    """
    p = ctx.p
    levels = []  # (q, blocks): block (lo, h, steps) holds the h rows r = lo..lo+h-1 of level q
    plane = out = mirror = 0  # int32 cells of the largest accumulator plane, read-out and input
    q = 1
    while q < ctx.order:
        width = p * q + 1
        rows = max(1, min(q, _BLOCK_CELLS // width))
        blocks = []
        for lo in range(1, q + 1, rows):
            h = min(rows, q + 1 - lo)
            steps = max(1, min(p - 1, _BLOCK_CELLS // (h * width)))
            blocks.append((lo, h, steps))
            plane, out = max(plane, h * width), max(out, steps * h * width)
            mirror = max(mirror, h * (2 * q + 1))
        levels.append((q, blocks))
        q *= p
    planes, readout = np.empty(2 * plane, np.int32), np.empty(out, np.int32)
    inputs = np.empty(2 * mirror, np.int32)
    offsets = _spread_offsets(ctx, f)
    one = np.ones(1, np.int32)
    table = _Rows(np.array([0, 1], np.int64), one, one)
    for q, blocks in levels:
        pieces: list = []
        for lo, h, steps in blocks:
            _level_block(ctx, table, offsets, q, lo, lo + h, steps, planes, readout, inputs, pieces)
        pieces.sort(key=itemgetter(0))
        _, counts, cols, coefs = zip(*pieces)
        table = _Rows(np.concatenate([table.starts, table.starts[-1] + np.cumsum(np.concatenate(counts))]),
                      np.concatenate([table.cols, *cols]), np.concatenate([table.coefs, *coefs]))
    return table


def _level_block(ctx: RingContext, table: _Rows, offsets: tuple[int, ...],
                 q: int, lo: int, hi: int, steps: int,
                 planes: np.ndarray, readout: np.ndarray, inputs: np.ndarray, pieces: list) -> None:
    """Append to pieces the rows of s = k q + r, k = 1..p-1 and lo <= r < hi.

    table holds the rows of V_1..V_q.  A piece (s, counts, cols, coefs)
    holds the rows of V_s, V_{s+1}, ... in turn, counts[i] terms each.  The
    accumulators are a view of planes, the rows of up to steps steps k are
    read out through a view of readout, and the values on V_r and V_{q-r}
    are spread from a view of inputs: flat int32 arrays large enough for all
    three.
    """
    p, h, width = ctx.p, hi - lo, ctx.p * q + 1  # column t holds V_t, for t = 0..pq
    mirrored = inputs[: 2 * h * (2 * q + 1)].reshape(2, h, 2 * q + 1)
    mirrored.fill(0)
    on_r, on_comp = mirrored
    _mirror(on_r, table, lo, hi, 0, 1)
    # row i of on_comp holds V_{q-lo-i}, and stays zero for r = q
    top = max(1, q + 1 - hi)
    _mirror(on_comp, table, top, q + 1 - lo, q - lo - top, -1)
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
            counts, cols, coefs = _nonzeros(out[: j + 1])
            # the rows of one step k are consecutive in s, and those of all
            # the steps read out when the block is the whole level, r = 1..q
            run = h if h < q else (j + 1) * h
            ends = np.cumsum(counts)[run - 1 :: run].tolist()
            for i, (x, y) in enumerate(zip([0] + ends, ends)):
                s = (k - j + i * run // h) * q + lo
                pieces.append((s, counts[i * run : (i + 1) * run], cols[x:y], coefs[x:y]))


def _mirror(out: np.ndarray, table: _Rows, a: int, b: int, first: int, step: int) -> None:
    """Write the values on V_a..V_{b-1}, supported on V_1..V_q, into rows first, first + step, ... of out.

    out is zero and 2q + 1 wide.  A term c V_t puts c at column q + t and
    -c at column q - t, so adding the row at columns base - q .. base + q of
    an array indexed by V_t adds spread(base, value): +c V_{base+t} - c V_{base-t}.
    """
    width = out.shape[1]
    starts = table.starts[a - 1 : b]
    x, y = starts[0], starts[-1]
    cols, coefs = table.cols[x:y], table.coefs[x:y]
    at = np.repeat(np.arange(first, first + step * (b - a), step) * width + width // 2, np.diff(starts))
    flat = out.reshape(-1)
    flat[at + cols] = coefs
    flat[at - cols] = -coefs


def _nonzeros(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of block in CSR form: how many nonzero entries each row has, their columns and values.

    block is C-contiguous, of any number of dimensions, each of its rows of
    the last axis one row.  The columns are int32.
    """
    width = block.shape[-1]
    flat = block.reshape(-1)
    # flat positions of a bool mask: numpy's nonzero is much slower on 2-D or int input
    at = np.flatnonzero(flat != 0)
    row, col = np.divmod(at, width)
    return np.bincount(row, minlength=flat.size // width), col.astype(np.int32), flat[at]


def adams(ctx: RingContext, n: int, w: GreenElement) -> GreenElement:
    """The n-th Adams operation, extended Z-linearly to any element.

    Requires p not dividing n, checked once per call, for the zero element
    too; the exponent is folded as in adams_basis.
    """
    _check_context(ctx, w)
    n = _folded(ctx, n)
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
    """Check the structural law for the value on V_s (see _shape_clauses)."""
    value = adams_basis(ctx, n, s)
    cols, coefs = np.array(value.terms, np.int64).reshape(-1, 2).T
    violated = _shape_clauses(ctx, n, _Rows(np.array([0, cols.size]), cols, coefs), s)[0]
    return ShapeVerdict(violated is None, violated, value)


def _shape_clauses(ctx: RingContext, n: int, rows: _Rows, lo: int) -> list[ShapeClause | None]:
    """The first clause of the structural law that each row breaks, None where all hold.

    Row i is the n-th operation on V_{lo+i}, its terms ascending from
    starts[0] = 0.  Clauses, in order: all multiplicities lie in {-1, 0, 1};
    the nonzero multiplicities alternate in sign in descending index order
    starting with +1; the largest index is at most p^level(s); indices are
    all odd when n is even, and all of the parity of s when n is odd.  A row
    breaks a clause when one of its terms does.
    """
    starts, cols, coefs = rows
    h = len(starts) - 1
    row = np.repeat(np.arange(h, dtype=np.int32), np.diff(starts))
    s = np.arange(lo, lo + h)
    powers = ctx.p ** np.arange(ctx.nu + 1)
    bound = powers[np.searchsorted(powers, s)]  # p^level(s)
    want = np.ones(h, np.int64) if n % 2 == 0 else s % 2
    last = np.diff(row, append=h) != 0  # a row's leading term, its largest index, is its last
    twin = (np.diff(coefs, append=0) == 0) & ~last  # equal to the next term of its row
    broken = [np.bincount(row[bad], minlength=h) > 0
              for bad in ((coefs > 1) | (coefs < -1), twin | last & (coefs != 1),
                          last & (cols > bound[row]), cols % 2 != want[row])]
    verdicts = (*ShapeClause, None)
    return [verdicts[i] for i in np.argmax([*broken, np.ones(h, bool)], axis=0).tolist()]
