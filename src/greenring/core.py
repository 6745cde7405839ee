"""Exact elements of the Green ring of a cyclic p-group.

The ring R has a Z-basis V_1, ..., V_q (q = p^nu), where V_r stands for the
unique indecomposable module of dimension r.  Elements are stored sparsely,
as the ascending tuple of their nonzero (index, multiplicity) terms; the
conventions V_0 = 0 and V_{-r} = -V_r are normalized away at construction, so
equality is termwise.  Arithmetic accumulates into one dict per result, so it
costs time in the support of its operands, not in q.

Multiplication is the bilinear extension of basis products computed from the
generator ladder (see basis_product); no matrices are involved.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import (
    ContextMismatchError,
    IndexRangeError,
    ParseError,
    SettingError,
    SupportError,
)

DEFAULT_ORDER_CAP = 1024
ORDER_CAP_ENV = "GREENRING_ORDER_CAP"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def env_cap(name: str, default: int) -> int:
    """A positive integer cap read from the environment variable `name`.

    Unset or empty gives `default`; anything but a plain decimal integer of at
    least 1 raises SettingError.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise SettingError(f"{name} must be a positive integer, got {raw!r}")
    return int(raw)


def order_cap() -> int:
    """Group-order cap; override with the GREENRING_ORDER_CAP env var."""
    return env_cap(ORDER_CAP_ENV, DEFAULT_ORDER_CAP)


@dataclass(frozen=True)
class RingContext:
    """The pair (p, nu) fixing the ring of the cyclic group of order p^nu."""

    p: int
    nu: int
    order: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        order = self.p**self.nu
        cap = order_cap()
        if order > cap:
            raise ValueError(f"group order {order} exceeds cap {cap}")
        object.__setattr__(self, "order", order)

    def level(self, s: int) -> int:
        """Smallest m >= 0 with s <= p^m, for 1 <= s <= p^nu."""
        if not 1 <= s <= self.order:
            raise IndexRangeError(f"index {s} outside 1..{self.order}")
        m, pm = 0, 1
        while s > pm:
            pm *= self.p
            m += 1
        return m

    def __repr__(self) -> str:
        return f"RingContext(p={self.p}, nu={self.nu})"


# The shape law makes almost every multiplicity of an Adams value +-1, so the
# (r, 1) and (r, -1) terms are shared between elements: a stored term then costs
# one pointer, and the memory of a table does not follow its supports.  It
# holds at most two pairs per index, so twice the largest group order in use.
_UNIT_TERMS: dict[tuple[int, int], tuple[int, int]] = {}


def _terms(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The nonzero pairs of an ascending (index, multiplicity) sequence."""
    units = _UNIT_TERMS
    return tuple([units.setdefault(t, t) if t[1] in (1, -1) else t for t in pairs if t[1]])


class GreenElement:
    """A virtual module: integer multiplicities over the basis V_1..V_q.

    Stored sparsely as `terms`, the nonzero (index, multiplicity) pairs in
    ascending index order, so the cost of an element follows its support, not
    q; pairs of multiplicity +-1 are shared (see _UNIT_TERMS).  The dense
    constructor GreenElement(ctx, coeffs) and the `coeffs`
    tuple are views derived from the same terms.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ctx.order:
            raise ValueError(
                f"expected {ctx.order} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", _terms(enumerate(coeffs, 1)))

    @classmethod
    def _from_dict(cls, ctx: RingContext, acc: Mapping[int, int]) -> "GreenElement":
        """The element with multiplicity acc[r] on V_r; zero entries are dropped.

        Every key must already lie in 1..q: callers accumulate normalized
        indices, so no range check is made here.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "terms", _terms(sorted(acc.items())))
        return obj

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("GreenElement is immutable")

    @classmethod
    def from_terms(cls, ctx: RingContext, terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> "GreenElement":
        """Build an element from (index, multiplicity) pairs.

        Index 0 is dropped and negative indices -r contribute -1 times V_r,
        so callers may hand in unnormalized terms.
        """
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for r, c in items:
            r, c = int(r), int(c)
            if r == 0 or c == 0:
                continue
            if r < 0:
                r, c = -r, -c
            if r > ctx.order:
                raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
            acc[r] = acc.get(r, 0) + c
        return cls._from_dict(ctx, acc)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense multiplicities of V_1..V_q."""
        out = [0] * self.ctx.order
        for r, c in self.terms:
            out[r - 1] = c
        return tuple(out)

    def coeff(self, r: int) -> int:
        if not 1 <= r <= self.ctx.order:
            raise IndexRangeError(f"index {r} outside 1..{self.ctx.order}")
        i = bisect_left(self.terms, (r,))
        if i < len(self.terms) and self.terms[i][0] == r:
            return self.terms[i][1]
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero (index, multiplicity) pairs in ascending index order."""
        return iter(self.terms)

    def support(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def dim(self) -> int:
        return sum(r * c for r, c in self.terms)

    def _check_ctx(self, other: "GreenElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(
                f"mixed contexts {self.ctx} and {other.ctx}"
            )

    def _combine(self, other: "GreenElement", sign: int) -> "GreenElement":
        self._check_ctx(other)
        acc = dict(self.terms)
        for r, c in other.terms:
            acc[r] = acc.get(r, 0) + sign * c
        return GreenElement._from_dict(self.ctx, acc)

    def __add__(self, other: "GreenElement") -> "GreenElement":
        if not isinstance(other, GreenElement):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "GreenElement") -> "GreenElement":
        if not isinstance(other, GreenElement):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "GreenElement":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return GreenElement._from_dict(self.ctx, {r: other * c for r, c in self.terms})
        if isinstance(other, GreenElement):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GreenElement)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.terms))

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.ctx!r}>"


def _apply_generator(u: dict[int, int], pj: int, top: int) -> dict[int, int]:
    """X_j * u for X_j = V_{p^j+1} - V_{p^j-1}, u supported on V_1..V_top.

    X_j V_s = V_{s+p^j} + V_{s-p^j} with V_0 = 0 and V_{-t} = -V_t, and an
    index above top = p^(j+1) reflects: V_{top+t} -> 2V_top - V_{top-t}.
    """
    out: dict[int, int] = {}
    for s, c in u.items():
        hi = s + pj
        if hi > top:
            out[top] = out.get(top, 0) + 2 * c
            hi = 2 * top - hi
            c_hi = -c
        else:
            c_hi = c
        out[hi] = out.get(hi, 0) + c_hi
        lo = s - pj
        if lo > 0:
            out[lo] = out.get(lo, 0) + c
        elif lo < 0:
            out[-lo] = out.get(-lo, 0) - c
    return out


@lru_cache(maxsize=1 << 14)
def basis_product(p: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """V_a * V_b as ascending (index, multiplicity) pairs, from the generator ladder.

    For a <= b with p^j < b <= p^(j+1), write b = k p^j + r with
    1 <= r <= p^j.  The second-kind Dickson ladder
    V_b = F_k(X_j) V_r + F_{k-1}(X_j) V_{p^j - r} gives

        V_a V_b = F_k(X_j)(V_a V_r) + F_{k-1}(X_j)(V_a V_{p^j - r}),

    with both smaller products found the same way, so no matrix is built.
    Since F_{i+1} = X F_i - F_{i-1}, the values w_i = V_a V_{i p^j + r}
    satisfy w_1 = X_j w_0 + V_a V_{p^j - r} and w_{i+1} = X_j w_i - w_{i-1}.
    The product depends on p only, not on nu.  The GF(p) oracle's
    pair_product computes the same multiplicities independently.
    """
    if a > b:
        return basis_product(p, b, a)
    if a < 1:
        raise IndexRangeError(f"basis index {a} must be >= 1")
    if a == 1:
        return ((b, 1),)
    pj = 1
    while pj * p < b:
        pj *= p
    top = pj * p
    k = (b - 1) // pj
    r = b - k * pj
    prev = dict(basis_product(p, a, r))
    cur = _apply_generator(prev, pj, top)
    if r < pj:
        for t, m in basis_product(p, a, pj - r):
            cur[t] = cur.get(t, 0) + m
    for _ in range(k - 1):
        nxt = _apply_generator(cur, pj, top)
        for t, m in prev.items():
            nxt[t] = nxt.get(t, 0) - m
        prev, cur = cur, nxt
    return tuple(sorted((t, m) for t, m in cur.items() if m))


def multiply(x: GreenElement, y: GreenElement) -> GreenElement:
    """Product in the Green ring: the bilinear extension of basis_product."""
    x._check_ctx(y)
    p = x.ctx.p
    acc: dict[int, int] = {}
    for r, cr in x.terms:
        for s, cs in y.terms:
            c = cr * cs
            for t, m in basis_product(p, r, s):
                acc[t] = acc.get(t, 0) + c * m
    return GreenElement._from_dict(x.ctx, acc)


def zero(ctx: RingContext) -> GreenElement:
    return GreenElement._from_dict(ctx, {})


def one(ctx: RingContext) -> GreenElement:
    """The ring identity V_1."""
    return basis_element(ctx, 1)


def basis_element(ctx: RingContext, r: int) -> GreenElement:
    """V_r for r > 0, the zero element for r = 0, and -V_{|r|} for r < 0."""
    if abs(r) > ctx.order:
        raise IndexRangeError(f"index {r} outside -{ctx.order}..{ctx.order}")
    return GreenElement.from_terms(ctx, {r: 1} if r else {})


def dim(a: GreenElement) -> int:
    """The dimension homomorphism: V_r has dimension r, extended Z-linearly."""
    return a.dim()


def scale(k: int, a: GreenElement) -> GreenElement:
    return a * k


def ring_generator(ctx: RingContext, m: int) -> GreenElement:
    """The generator V_{p^m + 1} - V_{p^m - 1} of level m, 0 <= m <= nu-1."""
    if not 0 <= m <= ctx.nu - 1:
        raise IndexRangeError(f"generator level {m} outside 0..{ctx.nu - 1}")
    pm = ctx.p**m
    return GreenElement.from_terms(ctx, [(pm + 1, 1), (pm - 1, -1)])


def _check_support(ctx: RingContext, m: int, a: GreenElement) -> int:
    """p^m, after checking that a lies in the level-m subring V_1..V_{p^m}."""
    if not 0 <= m <= ctx.nu:
        raise IndexRangeError(f"subring level {m} outside 0..{ctx.nu}")
    pm = ctx.p**m
    if a.terms and a.terms[-1][0] > pm:
        bad = [r for r, _ in a.terms if r > pm]
        raise SupportError(f"support {bad} exceeds subring bound {pm}")
    return pm


def heller(m: int, a: GreenElement) -> GreenElement:
    """Heller translate at level m: V_r maps to V_{p^m - r}, extended linearly.

    Requires the argument to be supported on V_1..V_{p^m}; note that V_{p^m}
    itself maps to zero.
    """
    pm = _check_support(a.ctx, m, a)
    return GreenElement.from_terms(a.ctx, [(pm - r, c) for r, c in a.items()])


def congruent_mod_regular(m: int, a: GreenElement, b: GreenElement) -> bool:
    """True iff a - b is an integer multiple of V_{p^m}.

    Such a congruence pins the multiple exactly: the difference must equal
    p^{-m} * dim(a - b) times V_{p^m}.
    """
    a._check_ctx(b)
    pm = _check_support(a.ctx, m, a)
    _check_support(b.ctx, m, b)
    diff = a - b
    return all(r == pm for r in diff.support())


def to_dict(a: GreenElement) -> dict:
    """Canonical serialized form, nonzero coefficients keyed by decimal index."""
    return {
        "p": a.ctx.p,
        "nu": a.ctx.nu,
        "coeffs": {str(r): c for r, c in a.items()},
    }


# an index key as to_dict writes it; "03" or " 3" would alias "3"
_INDEX_KEY_RE = re.compile(r"0|-?[1-9][0-9]*")


def _strict_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def from_dict(data: Mapping) -> GreenElement:
    """Inverse of to_dict, rejecting what to_dict never writes.

    p, nu and the coefficients must be ints (not bools, floats or strings)
    and the keys decimal strings without leading zeros or whitespace;
    anything else raises ParseError instead of being coerced.
    """
    try:
        p, nu, items = data["p"], data["nu"], list(data["coeffs"].items())
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed element object: {exc}") from exc
    ctx = RingContext(_strict_int(p, "p"), _strict_int(nu, "nu"))
    terms = {}
    for key, c in items:
        if not isinstance(key, str) or not _INDEX_KEY_RE.fullmatch(key):
            raise ParseError(f"coefficient key {key!r} is not a decimal index")
        r = int(key)
        if not 1 <= r <= ctx.order:
            raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
        terms[r] = _strict_int(c, f"coefficient of V{r}")
    return GreenElement.from_terms(ctx, terms)


def format_element(a: GreenElement) -> str:
    """Human-readable form in descending index order, e.g. "V5 - V3 + 2V1".

    One pass: every term is written as "+ V5", "- 2V3", ..., and the leading
    "+ " or "- " becomes "" or "-" after the join.
    """
    if not a.terms:
        return "0"
    text = " ".join([
        f"+ V{r}" if c == 1 else f"- V{r}" if c == -1
        else f"+ {c}V{r}" if c > 0 else f"- {-c}V{r}"
        for r, c in reversed(a.terms)
    ])
    return text[2:] if text[0] == "+" else "-" + text[2:]


_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+)?V(\d+)")


def parse_element(ctx: RingContext, text: str) -> GreenElement:
    """Parse a literal like "V5-V3+2V1" (strict grammar, whitespace allowed)."""
    s = text.strip()
    if s == "0":
        return zero(ctx)
    terms: list[tuple[int, int]] = []
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (not first and m.group(1) is None):
            raise ParseError(f"bad element literal {text!r} at offset {pos}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        r = int(m.group(3))
        if not 1 <= r <= ctx.order:
            raise IndexRangeError(f"index {r} outside 1..{ctx.order}")
        terms.append((r, sign * mag))
        pos = m.end()
        first = False
    return GreenElement.from_terms(ctx, terms)
