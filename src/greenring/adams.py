"""Adams operations on the Green ring for exponents coprime to p.

The n-th operation is computed on basis modules by a level recursion that
needs no ring multiplication: writing s = k p^m + r at the level m just below
s, the value on V_s is assembled from the values on V_r and V_{p^m - r} by
the spreading maps, with the exponents folded into 1..p-1 through the
dihedral symmetry of period 2p.  The k + 1 spreads are added straight into
the value's one accumulator dict, with no element built for any of them, so
a value costs time in the supports involved, not in the group order.
Results are memoized per context.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import (
    GreenElement,
    RingContext,
    _check_support,
    basis_element,
    multiply,
    one,
    ring_generator,
)
from .errors import (
    ContextMismatchError,
    DivisibilityError,
    IndexRangeError,
)
from .polynomials import dickson_first

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


def adams_basis(ctx: RingContext, n: int, s: int, fold: bool = True) -> GreenElement:
    """The n-th Adams operation applied to the basis module V_s.

    Requires p not dividing n.  With fold=True (the default) the exponent is
    first folded into 1..p-1, which the periodicity and reflection identities
    make exact; fold=False runs the level recursion on the raw exponent, so
    those identities can be verified rather than assumed.
    """
    if n < 1:
        raise DivisibilityError(f"exponent must be >= 1, got {n}")
    if n % ctx.p == 0:
        raise DivisibilityError(
            f"exponent {n} divisible by p = {ctx.p} is not supported"
        )
    if not 1 <= s <= ctx.order:
        raise IndexRangeError(f"index {s} outside 1..{ctx.order}")
    n_eff = fold_exponent(ctx, n) if fold else n
    return _adams_basis(ctx, n_eff, s)


def adams(ctx: RingContext, n: int, w: GreenElement, fold: bool = True) -> GreenElement:
    """The n-th Adams operation, extended Z-linearly to any element."""
    if w.ctx != ctx:
        raise ContextMismatchError("element belongs to a different context")
    if len(w.terms) == 1 and w.terms[0][1] == 1:
        # a basis module: the memoized value itself rather than a copy of it
        return adams_basis(ctx, n, w.terms[0][0], fold=fold)
    acc: dict[int, int] = {}
    for s, c in w.terms:
        for t, v in adams_basis(ctx, n, s, fold=fold).terms:
            acc[t] = acc.get(t, 0) + c * v
    return GreenElement._from_dict(ctx, acc)


def adams_on_generator(ctx: RingContext, n: int, m: int) -> GreenElement:
    """Exterior-series Adams operation on the level-m ring generator.

    Valid for every n >= 1, including multiples of p: the value is the
    first-kind Dickson polynomial of index n evaluated at the generator.
    """
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
    """Check the structural law for the value on V_s.

    Clauses, in order: all multiplicities lie in {-1, 0, 1}; the nonzero
    multiplicities alternate in sign in descending index order starting with
    +1; the largest index is at most p^level(s); indices are all odd when n
    is even, and all of the parity of s when n is odd.
    """
    value = adams_basis(ctx, n, s)
    terms = value.terms
    if any(abs(c) > 1 for _, c in terms):
        return ShapeVerdict(False, ShapeClause.COEFFICIENTS, value)
    if not signs_alternate(value):
        return ShapeVerdict(False, ShapeClause.ALTERNATION, value)
    bound = ctx.p ** ctx.level(s)
    if terms and terms[-1][0] > bound:
        return ShapeVerdict(False, ShapeClause.INDEX_BOUND, value)
    want = 1 if n % 2 == 0 else s % 2
    if any(r % 2 != want for r, _ in terms):
        return ShapeVerdict(False, ShapeClause.PARITY, value)
    return ShapeVerdict(True, None, value)
