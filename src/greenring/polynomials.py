"""Integer polynomials in one variable, plus the two Dickson families.

Both families satisfy the Chebyshev-like recurrence h_n = t*h_{n-1} - h_{n-2};
they differ only in their seeds: (2, t) for the first kind and (1, t) for the
second kind (with the convention that the second kind starts at index -1 with
the zero polynomial).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from typing import Callable, TypeVar

T = TypeVar("T")


class IntPolynomial:
    """Dense integer-coefficient polynomial, ascending degree, zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(
            a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(other * a for a in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate(self, x: T, one: T, mul: Callable[[T, T], T]) -> T:
        """Horner evaluation in any commutative ring.

        `one` is the ring identity and `mul` its multiplication; addition and
        integer scaling must be available on T via the usual operators.
        """
        acc = 0 * one
        for c in reversed(self.coeffs):
            acc = mul(acc, x) + c * one
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial('0')"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if not c:
                continue
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if not parts:
                parts.append(("-" if c < 0 else "") + mag + var)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag + var)
        return f"IntPolynomial('{' '.join(parts)}')"


T_POLY = IntPolynomial((0, 1))


def _dickson(h0: IntPolynomial, h1: IntPolynomial, n: int) -> IntPolynomial:
    """h_n of h_k = t*h_{k-1} - h_{k-2} from the seeds h_0, h_1, built bottom-up.

    A loop, not a recursion, so no index runs into the interpreter's
    recursion limit.
    """
    for _ in range(n):
        h0, h1 = h1, T_POLY * h1 - h0
    return h0


@lru_cache(maxsize=None)
def dickson_first(n: int) -> IntPolynomial:
    """Dickson polynomial of the first kind: seeds 2 and t."""
    if n < 0:
        raise ValueError(f"first-kind index must be >= 0, got {n}")
    return _dickson(IntPolynomial((2,)), T_POLY, n)


@lru_cache(maxsize=None)
def dickson_second(n: int) -> IntPolynomial:
    """Dickson polynomial of the second kind: seeds 0 (at n = -1), 1 and t."""
    if n < -1:
        raise ValueError(f"second-kind index must be >= -1, got {n}")
    return _dickson(IntPolynomial(), IntPolynomial((1,)), n + 1)
