"""Seeded identity sweeps at contexts the GF(p) oracle cannot reach.

At (1021,1), (31,2) and (2,10) the matrices behind the oracle are far too
large, so these sweeps check what the paper guarantees without matrices: the
shape law and dimension over a whole Adams table, multiplicativity of the
Adams operations on basis products, exactness of the Newton divisions, and
Gow-Laffey degree-2 reciprocity between exterior and symmetric squares.
Each sweep is seeded and bounded so it stays within a few seconds.
"""

import math
import random

import pytest

from greenring import (
    RingContext,
    adams,
    adams_basis,
    adams_table,
    basis_element,
    clear_cache,
    dim,
    exterior_power,
    fold_exponent,
    gow_laffey_check,
    multiply,
    shape_check,
    symmetric_power,
)

SEED = 20090912


def _folded_exponent(ctx, rng):
    """A seeded exponent coprime to p whose fold is not the identity (if p > 2)."""
    while True:
        n = rng.randrange(1, 4 * ctx.p)
        if n % ctx.p and (ctx.p == 2 or fold_exponent(ctx, n) != 1):
            return n


@pytest.mark.parametrize("p, nu", [(1021, 1), (31, 2), (2, 10), (3, 6), (5, 4)])
def test_whole_table_shape_and_dimension(p, nu):
    ctx = RingContext(p, nu)
    n = _folded_exponent(ctx, random.Random(SEED + p))
    # the per-value recursion and the level-by-level table, each from an
    # empty memo but for one value, which the table must hand back as it is;
    # the table's values are then the memoized ones
    clear_cache(ctx)
    by_value = [adams_basis(ctx, n, s) for s in range(1, ctx.order + 1)]
    clear_cache(ctx)
    kept = adams_basis(ctx, n, ctx.order // 2)
    table = adams_table(ctx, n)
    assert table[ctx.order // 2 - 1] is kept
    bad = []
    for s in range(1, ctx.order + 1):
        verdict = shape_check(ctx, n, s)
        value = table[s - 1]
        if (not verdict.ok or dim(value) != s or value != by_value[s - 1]
                or value is not adams_basis(ctx, n, s)):
            bad.append((s, verdict.violated))
    assert not bad, (n, bad[:5])


# A basis product at (31,2) costs tens of microseconds, but the right-hand
# side of one check multiplies two Adams values term by term, up to ~70,000
# basis products for the widest pairs.  Pairs needing more than this many are
# redrawn, which keeps the sweep near 2 s; about five uniform pairs in six
# qualify at (31,2), and every pair at (2,10), where each admissible exponent
# folds to 1.
MAX_BASIS_PAIRS = 12_000


@pytest.mark.parametrize("p, nu", [(31, 2), (2, 10)])
def test_adams_multiplicative_on_basis_products(p, nu):
    ctx = RingContext(p, nu)
    rng = random.Random(SEED + p)
    checked = 0
    while checked < 20:
        n = _folded_exponent(ctx, rng)
        a, b = rng.randint(1, ctx.order), rng.randint(1, ctx.order)
        psi_a, psi_b = adams_basis(ctx, n, a), adams_basis(ctx, n, b)
        if len(psi_a.terms) * len(psi_b.terms) > MAX_BASIS_PAIRS:
            continue
        lhs = adams(ctx, n, multiply(basis_element(ctx, a), basis_element(ctx, b)))
        assert lhs == multiply(psi_a, psi_b), (n, a, b)
        checked += 1


def test_newton_squares_divide_exactly():
    # exterior_power and symmetric_power assert each Newton division is exact
    ctx = RingContext(31, 2)
    rng = random.Random(SEED)
    for s in rng.sample(range(1, ctx.order + 1), 10):
        v = basis_element(ctx, s)
        assert dim(exterior_power(ctx, 2, v)) == math.comb(s, 2), s
        assert dim(symmetric_power(ctx, 2, v)) == math.comb(s + 1, 2), s


@pytest.mark.parametrize("p, nu", [(31, 2), (1021, 1)])
def test_gow_laffey_reciprocity(p, nu):
    # ten seeded (level, index) pairs; a pair costs at most ~0.2 s at (1021,1)
    ctx = RingContext(p, nu)
    rng = random.Random(SEED + 2 * p)
    bad = []
    for _ in range(10):
        m = rng.randint(1, nu)
        r = rng.randint(1, p**m)
        verdict = gow_laffey_check(ctx, m, r)
        if not verdict.ok:
            bad.append((m, r, verdict))
    assert not bad, bad
