"""Exact elements of the Green ring of a cyclic p-group.

The ring R has a Z-basis V_1, ..., V_q (q = p^nu), where V_r stands for the
unique indecomposable module of dimension r.  Elements are stored sparsely,
as the ascending tuple of their nonzero (index, multiplicity) terms; the
conventions V_0 = 0 and V_{-r} = -V_r are normalized away at construction, so
equality is termwise.  Arithmetic accumulates into one dict per result, so it
costs time in the support of its operands, not in q.

Multiplication is the bilinear extension of basis products computed in closed
form (see basis_product); no matrices are involved.
"""

from __future__ import annotations

import functools
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Iterator, Mapping

from .errors import (
    ContextError,
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


def _is_integer(x) -> bool:
    """True for Python and numpy integers; a bool or a float is never truncated."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _integer(x, what: str, error: type[Exception] = IndexRangeError) -> int:
    """x as an int, raising error when it is not a Python or numpy integer."""
    if type(x) is int:
        return x
    if not _is_integer(x):
        raise error(f"{what} {x!r} is not an integer")
    return int(x)


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
        object.__setattr__(self, "p", _integer(self.p, "p", ContextError))
        object.__setattr__(self, "nu", _integer(self.nu, "nu", ContextError))
        # multiply up to the cap only: p**nu for a huge nu has millions of
        # digits.  Trial division (sqrt(p) steps) runs only on a p within the
        # cap: a larger one has been refused here, or has nu < 1, refused
        # last.  A p below 2 skips the loop, as its powers never pass the cap
        cap = order_cap()
        order = 1
        for _ in range(self.nu if self.p > 1 else 0):
            order *= self.p
            if order > cap:
                raise ContextError(f"group order {self.p}^{self.nu} exceeds cap {cap}")
        if self.p <= cap and not _is_prime(self.p):
            raise ContextError(f"p must be prime, got {self.p}")
        if self.nu < 1:
            raise ContextError(f"nu must be >= 1, got {self.nu}")
        object.__setattr__(self, "order", order)

    def check_index(self, r, what: str = "index") -> int:
        """r as an int, after checking that it is an integer in 1..p^nu.

        The one check of a basis index: a bool, a float or a string raises
        IndexRangeError rather than being coerced.
        """
        r = _integer(r, what)
        if not 1 <= r <= self.order:
            raise IndexRangeError(f"{what} {r} outside 1..{self.order}")
        return r

    def level(self, s: int) -> int:
        """Smallest m >= 0 with s <= p^m, for 1 <= s <= p^nu."""
        s = self.check_index(s)
        m, pm = 0, 1
        while s > pm:
            pm *= self.p
            m += 1
        return m

    def __repr__(self) -> str:
        return f"RingContext(p={self.p}, nu={self.nu})"


# The shape law makes every multiplicity of an Adams value +-1, so the
# (r, 1) and (r, -1) terms are shared between elements: a stored term then costs
# one pointer, and the memory of a table does not follow its supports.  It
# holds at most two pairs per index, so twice the largest group order in use.
_UNIT_TERMS: dict[tuple[int, int], tuple[int, int]] = {}


def _terms(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The nonzero pairs of an ascending (index, multiplicity) sequence."""
    units = _UNIT_TERMS
    return tuple([units.setdefault(t, t) if t[1] in (1, -1) else t for t in pairs if t[1]])


@functools.cache
def _unit_terms(order: int) -> list[tuple[int, int]]:
    """The shared unit pairs up to V_order: (t, 1) at entry 2t and (t, -1) at 2t + 1.

    Entries 0 and 1 stand for V_0 and are None.
    """
    units = _UNIT_TERMS
    out: list = [None, None]
    for t in range(1, order + 1):
        out.append(units.setdefault((t, 1), (t, 1)))
        out.append(units.setdefault((t, -1), (t, -1)))
    return out


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
        coeffs = tuple(_integer(c, "multiplicity", ParseError) for c in coeffs)
        if len(coeffs) != ctx.order:
            raise ParseError(
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
        return cls._from_terms(ctx, _terms(sorted(acc.items())))

    @classmethod
    def _from_terms(cls, ctx: RingContext, terms: tuple[tuple[int, int], ...]) -> "GreenElement":
        """The element with these terms, taken as they are: nonzero, ascending, in 1..q."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "terms", terms)
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
            r, c = _integer(r, "index"), _integer(c, "multiplicity", ParseError)
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
        r = self.ctx.check_index(r)
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

    def _combine(self, other: "GreenElement", sign: int) -> "GreenElement":
        _check_context(self.ctx, other)
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
        if isinstance(other, GreenElement):
            return multiply(self, other)
        if isinstance(other, Integral):
            # a bool is Integral too, and is refused here, as a float is
            k = _integer(other, "scalar", TypeError)
            return GreenElement._from_dict(self.ctx, {r: k * c for r, c in self.terms})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Integral):
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


def _level_zero(p: int, a: int, b: int) -> tuple[range, int]:
    """The truncated Clebsch-Gordan rule: V_a * V_b for 1 <= a <= b <= p.

    Returns the indices below p, each of multiplicity 1, and the
    multiplicity of V_p.
    """
    return range(b - a + 1, min(a + b, 2 * p - a - b), 2), max(0, a + b - p)


def basis_product(p: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    """V_a * V_b as ascending (index, multiplicity) pairs, in closed form.

    The product depends on p only, not on nu, and is symmetric; below,
    a <= b.

    Level 0 (b <= p): V_{b-a+1} + V_{b-a+3} + ... + V_{a+b-1} if a + b <= p,
    otherwise (a+b-p) V_p + V_{b-a+1} + V_{b-a+3} + ... + V_{2p-a-b-1}.

    Above level 0, let m = p^j < b <= pm and write b = k2 m + r2 and, when
    a > m, a = k1 m + r1, with 1 <= r1, r2 <= m.

    - Lower level (a <= m): V_a V_{r2} with every index raised by k2 m,
      plus (a - r2) V_{k2 m} when a > r2.
    - Same level (a > m): write V_{r1} V_{r2} = Q + n V_m with Q free of
      V_m.  The product is Q raised by (k2-k1) m; plus, for
      e = k2-k1+2, k2-k1+4, ... up to min(k1+k2, 2p-k1-k2-2), every term
      c V_w of Q written as c V_{em+w} + c V_{em-w}; plus the level-0
      products n V_{k1+1} V_{k2+1} + (r1 - min(r1,r2)) V_{k1+1} V_{k2}
      + (r2 - min(r1,r2)) V_{k1} V_{k2+1} + max(0, m-r1-r2) V_{k1} V_{k2}
      with every index multiplied by m; and V_{pm} as often as the
      dimension a b requires.

    The two rules above level 0 come from the second-kind Dickson ladder
    V_{km+r} = F_k(X) V_r + F_{k-1}(X) V_{m-r} with X = V_{m+1} - V_{m-1},
    the rule F_i F_l = sum_t F_{i+l-2t}, and the Heller translate
    V_r -> V_{m-r} commuting with products up to multiples of V_m (Renaud,
    J. Algebra 58, 1979).  Terms that would cancel after the reflection at
    V_{pm} are never written, so a pair costs time linear in its output
    and nothing is cached.  The GF(p) oracle's pair_product computes the
    same multiplicities independently.
    """
    if a > b:
        a, b = b, a
    if a < 1:
        raise IndexRangeError(f"basis index {a} must be >= 1")
    if b <= p:
        below, top = _level_zero(p, a, b)
        return tuple([(t, 1) for t in below] + ([(p, top)] if top else []))
    m = p
    while m * p < b:
        m *= p
    k2, r2 = divmod(b - 1, m)
    r2 += 1
    if a <= m:
        base = k2 * m
        head = [(base, a - r2)] if a > r2 else []
        return tuple(head + [(base + t, c) for t, c in basis_product(p, a, r2)])
    k1, r1 = divmod(a - 1, m)
    r1 += 1
    low = basis_product(p, r1, r2)
    n = 0
    if low[-1][0] == m:
        n = low[-1][1]
        low = low[:-1]
    lo, hi = k2 - k1, k1 + k2
    # `size` tracks the dimension written: raising c V_w by e m adds
    # c (e m + w), reflecting it down adds c (e m - w)
    count = sum(c for _, c in low)
    size = lo * m * count + r1 * r2 - n * m
    acc = {lo * m + w: c for w, c in low}
    for e in range(lo + 2, min(hi, 2 * p - hi - 2) + 1, 2):
        base = e * m
        size += 2 * base * count
        for w, c in low:
            acc[base + w] = c
            acc[base - w] = c
    least = min(r1, r2)
    for coef, i, l in (
        (n, k1 + 1, k2 + 1),
        (r1 - least, k1 + 1, k2),
        (r2 - least, k1, k2 + 1),
        (max(0, m - r1 - r2), k1, k2),
    ):
        if coef:
            below = _level_zero(p, min(i, l), max(i, l))[0]
            size += coef * m * sum(below)
            for t in below:
                acc[t * m] = acc.get(t * m, 0) + coef
    top = p * m
    if size < a * b:
        acc[top] = (a * b - size) // top
    return tuple([(t, acc[t]) for t in sorted(acc)])


def _check_context(ctx: RingContext, a: GreenElement) -> None:
    """Raise ContextMismatchError unless a is an element of ctx."""
    if a.ctx != ctx:
        raise ContextMismatchError(f"mixed contexts {ctx} and {a.ctx}")


def multiply(x: GreenElement, y: GreenElement) -> GreenElement:
    """Product in the Green ring: the bilinear extension of basis_product."""
    _check_context(x.ctx, y)
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
    r = _integer(r, "index")
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
    m = _integer(m, "generator level")
    if not 0 <= m <= ctx.nu - 1:
        raise IndexRangeError(f"generator level {m} outside 0..{ctx.nu - 1}")
    pm = ctx.p**m
    return GreenElement.from_terms(ctx, [(pm + 1, 1), (pm - 1, -1)])


def _check_support(ctx: RingContext, m: int, a: GreenElement) -> int:
    """p^m, after checking that a is an element of ctx supported on V_1..V_{p^m}."""
    _check_context(ctx, a)
    m = _integer(m, "subring level")
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
    pm = _check_support(a.ctx, m, a)
    _check_support(a.ctx, m, b)
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


def from_dict(data: Mapping) -> GreenElement:
    """Inverse of to_dict, rejecting what to_dict never writes.

    p, nu and the coefficients must be integers (not bools, floats or
    strings) and the keys decimal strings without leading zeros or
    whitespace; anything else raises ParseError instead of being coerced.
    """
    try:
        p, nu, items = data["p"], data["nu"], list(data["coeffs"].items())
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed element object: {exc}") from exc
    ctx = RingContext(_integer(p, "p", ParseError), _integer(nu, "nu", ParseError))
    terms = {}
    for key, c in items:
        if not isinstance(key, str) or not _INDEX_KEY_RE.fullmatch(key):
            raise ParseError(f"coefficient key {key!r} is not a decimal index")
        try:
            r = int(key)
        except ValueError as exc:  # only the interpreter's digit limit refuses a matched key
            raise ParseError(f"coefficient key of {len(key)} characters has too many digits") from exc
        r = ctx.check_index(r)
        terms[r] = _integer(c, f"coefficient of V{r}", ParseError)
    return GreenElement._from_dict(ctx, terms)


def format_element(a: GreenElement) -> str:
    """Human-readable form in descending index order, e.g. "V5 - V3 + 2V1".

    One pass: every term is written as "+ V5", "- 2V3", ..., and the leading
    "+ " or "- " becomes "" or "-" after the join.
    """
    text = " ".join([f"+ V{r}" if c == 1 else f"- V{r}" if c == -1 else f"+ {c}V{r}" if c > 0 else f"- {-c}V{r}"
                     for r, c in reversed(a.terms)])
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# [0-9], not \d: \d also matches non-ASCII digits (Arabic-Indic ones, say),
# and int() would read them
_TERM_RE = re.compile(r"\s*([+-])?\s*([0-9]+)?V([0-9]+)")


def parse_element(ctx: RingContext, text: str) -> GreenElement:
    """Parse a literal like "V5-V3+2V1" (strict grammar, whitespace allowed).

    The zero element is "0"; empty or blank text raises ParseError.
    """
    s = text.strip()
    if not s:
        raise ParseError(f"empty element literal {text!r}; the zero element is \"0\"")
    if s == "0":
        return zero(ctx)
    acc: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (not first and m.group(1) is None):
            raise ParseError(f"bad element literal {text!r} at offset {pos}")
        sign = -1 if m.group(1) == "-" else 1
        try:
            mag = int(m.group(2)) if m.group(2) else 1
            r = int(m.group(3))
        except ValueError as exc:  # only the interpreter's digit limit refuses [0-9]+
            raise ParseError(
                f"integer in element literal at offset {pos} has too many digits"
            ) from exc
        r = ctx.check_index(r)
        acc[r] = acc.get(r, 0) + sign * mag
        pos = m.end()
        first = False
    return GreenElement._from_dict(ctx, acc)
