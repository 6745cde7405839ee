"""Exterior and symmetric powers of arbitrary ring elements, degree < p.

Differentiating the defining logarithmic series for the Adams operations
yields Newton-type recurrences:

    i * L_i = sum_{j=1..i} (-1)^(j-1) psi_j(W) * L_{i-j}      (exterior)
    i * S_i = sum_{j=1..i}           psi_j(W) * S_{i-j}       (symmetric)

All arithmetic stays in the integral ring: each division by i is asserted to
be exact, and a failure indicates a bug rather than bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adams import adams
from .core import GreenElement, RingContext, _integer, basis_element, multiply, one
from .errors import GreenRingError, IndexRangeError


@dataclass(frozen=True)
class PowerSequence:
    """Consecutive power values, index 0 holding the ring identity."""

    kind: str  # "exterior" | "symmetric"
    values: tuple[GreenElement, ...]

    def __getitem__(self, i: int) -> GreenElement:
        return self.values[i]

    def top(self) -> GreenElement:
        return self.values[-1]


def _exact_divide(ctx: RingContext, acc: dict[int, int], i: int) -> GreenElement:
    out = {}
    for r, c in acc.items():
        q, rem = divmod(c, i)
        if rem:
            # integrality of the power series layer guarantees exactness;
            # a remainder means a bug, never bad input
            raise AssertionError(
                f"internal consistency failure: coefficient {c} not divisible by {i}"
            )
        out[r] = q
    return GreenElement._from_dict(ctx, out)


def _power_sequence(ctx: RingContext, n: int, w: GreenElement, alternating: bool) -> PowerSequence:
    n = _integer(n, "degree")
    if not 1 <= n <= ctx.p - 1:
        raise IndexRangeError(f"degree {n} outside 1..{ctx.p - 1}")
    psis = [None] + [adams(ctx, j, w) for j in range(1, n + 1)]
    values = [one(ctx)]
    for i in range(1, n + 1):
        acc: dict[int, int] = {}
        for j in range(1, i + 1):
            sign = -1 if alternating and j % 2 == 0 else 1
            for r, c in multiply(psis[j], values[i - j]).terms:
                acc[r] = acc.get(r, 0) + sign * c
        values.append(_exact_divide(ctx, acc, i))
    return PowerSequence("exterior" if alternating else "symmetric", tuple(values))


def exterior_sequence(ctx: RingContext, n: int, w: GreenElement) -> PowerSequence:
    """Exterior powers of w in all degrees 0..n (requires n < p)."""
    return _power_sequence(ctx, n, w, alternating=True)


def symmetric_sequence(ctx: RingContext, n: int, w: GreenElement) -> PowerSequence:
    """Symmetric powers of w in all degrees 0..n (requires n < p)."""
    return _power_sequence(ctx, n, w, alternating=False)


def exterior_power(ctx: RingContext, n: int, w: GreenElement) -> GreenElement:
    return exterior_sequence(ctx, n, w).top()


def symmetric_power(ctx: RingContext, n: int, w: GreenElement) -> GreenElement:
    return symmetric_sequence(ctx, n, w).top()


def adams_from_exterior_sequence(ctx: RingContext, values) -> list[GreenElement]:
    """Recover Adams values psi_1..psi_n of w from its exterior powers.

    Inverts the Newton recurrence:
    psi_i = (-1)^(i-1) (i * L_i - sum_{j<i} (-1)^(j-1) psi_j * L_{i-j}).
    This is an independent path to the Adams operations: given a genuine
    module, the exterior powers can come from matrix decompositions instead
    of the level recursion.
    """
    lams = list(values)
    n = len(lams) - 1
    psis: list[GreenElement] = [None]  # type: ignore[list-item]
    for i in range(1, n + 1):
        acc = i * lams[i]
        for j in range(1, i):
            term = multiply(psis[j], lams[i - j])
            if j % 2 == 0:
                term = -term
            acc = acc - term
        psis.append(acc if i % 2 == 1 else -acc)
    return psis[1:]


@dataclass(frozen=True)
class ReciprocityVerdict:
    """Outcomes of the two degree-2 reciprocity identities at (m, r)."""

    exterior_ok: bool
    symmetric_ok: bool

    @property
    def ok(self) -> bool:
        return self.exterior_ok and self.symmetric_ok


def gow_laffey_check(ctx: RingContext, m: int, r: int) -> ReciprocityVerdict:
    """Degree-2 reciprocity between exterior and symmetric powers (odd p).

    At level m with 1 <= r <= p^m, and writing q = p^m:
      exterior:  L2(V_r) = (r - (q+1)/2) V_q + S2(V_{q-r})
      symmetric: S2(V_r) = (r - (q-1)/2) V_q + L2(V_{q-r})
    """
    if ctx.p == 2:
        raise GreenRingError("reciprocity check requires odd p")
    m, r = _integer(m, "level"), _integer(r, "index")
    if not 1 <= m <= ctx.nu:
        raise IndexRangeError(f"level {m} outside 1..{ctx.nu}")
    q = ctx.p**m
    if not 1 <= r <= q:
        raise IndexRangeError(f"index {r} outside 1..{q}")
    v_r = basis_element(ctx, r)
    v_comp = basis_element(ctx, q - r)
    v_q = basis_element(ctx, q)
    lam_r = exterior_power(ctx, 2, v_r)
    sym_r = symmetric_power(ctx, 2, v_r)
    lam_c = exterior_power(ctx, 2, v_comp)
    sym_c = symmetric_power(ctx, 2, v_comp)
    first = lam_r == (r - (q + 1) // 2) * v_q + sym_c
    second = sym_r == (r - (q - 1) // 2) * v_q + lam_c
    return ReciprocityVerdict(first, second)
