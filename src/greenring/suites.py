"""Named verification sweeps driven by the command line and the test suite.

Each suite checks a family of identities at a given context.  The exponent
sweeps are not generators but _Sweep descriptions, which one walk over the
fold classes checks; any other suite is a generator of (label, outcome)
pairs, one per case, the outcome None on a pass and the counterexample text
on a failure.  SuiteReport.record is the one place that counts a clause's
cases and writes its line.  Sampling uses fixed seeds, so runs repeat bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .adams import (
    _Rows,
    _shape_clauses,
    _table,
    adams,
    adams_basis,
    fold_exponent,
    shape_check,
    signs_alternate,
)
from .core import (
    GreenElement,
    RingContext,
    basis_element,
    basis_product,
    congruent_mod_regular,
    dim,
    format_element,
    heller,
    multiply,
    one,
    ring_generator,
    zero,
)
from .errors import GreenRingError
from .oracle import decompose, oracle_cap, pair_product, realize
from .powers import gow_laffey_check

class NotApplicableError(GreenRingError):
    """The requested suite does not apply at this context (e.g. needs odd p)."""


class UnknownSuiteError(GreenRingError, ValueError):
    """No suite has the requested name."""


# a stream suite's pairs; each run of one label is one clause, never repeated later
Outcomes = Iterator[tuple[str, str | None]]

# the one clause whose line counts (n,s) pairs and names its first failure "first"
_SHAPE_LABEL = "alternating shape"


@dataclass
class SuiteReport:
    name: str
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def record(self, label: str, cases: Iterable[str | None]) -> None:
        """Run one clause's cases to the end and add its line.

        The line counts the passing cases and names the first failure, if
        any; the shape clause counts (n,s) pairs.
        """
        total = passed = 0
        first = None
        for failure in cases:
            total += 1
            if failure is None:
                passed += 1
            elif first is None:
                first = failure
        if label == _SHAPE_LABEL:
            unit, tag = " (n,s) pairs", "first"
        else:
            unit, tag = "", "first counterexample"
        line = f"{label}: {passed}/{total}{unit} pass"
        if first is not None:
            line += f"; {tag}: {first}"
            self.ok = False
        self.lines.append(line)

    def skip(self, label: str, reason: str) -> None:
        self.lines.append(f"{label}: skipped ({reason})")


def _valid_exponents(ctx: RingContext, bound: int) -> list[int]:
    return [n for n in range(1, bound + 1) if n % ctx.p]


def paired_structure_ok(ctx: RingContext, n: int, s: int, m: int) -> bool:
    """Joint structure of the values on V_s and its complement V_{p^m - s}.

    Even n: the two values sum to the regular module, exactly one of them
    carries the regular summand, and both obey the shape law.  Odd n: the value
    on the complement is the index reflection of the value on the odd-side
    module, reversed with alternating signs, and the odd side has an odd
    number of terms.
    """
    pm = ctx.p**m
    a_val = adams_basis(ctx, n, s)
    b_val = adams(ctx, n, basis_element(ctx, pm - s))
    if n % 2 == 0:
        if a_val + b_val != basis_element(ctx, pm):
            return False
        if sorted((a_val.coeff(pm), b_val.coeff(pm))) != [0, 1]:
            return False
        # the complement of V_pm is V_0 = 0
        return all(shape_check(ctx, n, t).ok for t in (s, pm - s) if t)
    # odd n: pick the side with an odd-dimensional module as the reference
    if s % 2 == 1 or ctx.p == 2:
        ref, other = a_val, b_val
    else:
        ref, other = b_val, a_val
    if len(ref.terms) % 2 == 0 or not signs_alternate(ref):
        return False
    return other == heller(m, ref)


def _random_element(ctx: RingContext, rng: random.Random, max_index: int, terms: int = 3) -> GreenElement:
    parts = {}
    for _ in range(rng.randint(1, terms)):
        r = rng.randint(1, max_index)
        parts[r] = parts.get(r, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return GreenElement.from_terms(ctx, parts)


def _desk_index(ctx: RingContext) -> int:
    # keep random products desk-scale at large contexts
    return min(ctx.order, 2 * ctx.p)


class _Sweep(NamedTuple):
    """An exponent sweep: one clause over the raw exponents ns, each on every case.

    failures(group, table, rows) gets the exponents of ns in one fold class
    and that class's table rows and dense view (see _sweep_failures); it
    returns {n: {case: text}} for the failing cases only.
    """

    label: str
    ns: list[int]
    cases: Sequence
    failures: Callable[[list[int], _Rows, np.ndarray], dict]


def _sweep_failures(ctx: RingContext, sweeps: dict[str, _Sweep]) -> dict[str, dict[int, dict]]:
    """{name: {n: {case: text}}} for the failing cases, from one walk over the fold classes.

    Each class f the sweeps meet gets one table, the rows _table(ctx, f),
    and one dense int32 view of it scattered from the rows, row s - 1 the
    value on V_s with column t = V_t for t = 0..q.  No sweep builds an
    element: shape reads the rows, the others the view.
    """
    classes: dict[int, dict[str, list[int]]] = {}
    for name, sweep in sweeps.items():
        for n in sweep.ns:
            classes.setdefault(fold_exponent(ctx, n), {}).setdefault(name, []).append(n)
    found = {name: {} for name in sweeps}
    q = ctx.order
    for f, groups in classes.items():
        table = _table(ctx, f)
        rows = np.zeros((q, q + 1), np.int32)
        at = np.repeat(np.arange(0, q * (q + 1), q + 1), np.diff(table.starts))
        rows.reshape(-1)[at + table.cols] = table.coefs
        for name, group in groups.items():
            found[name].update(sweeps[name].failures(group, table, rows))
    return found


def _class_wide(check: Callable[[int, _Rows, np.ndarray], dict]) -> Callable:
    """A sweep's failures from a check whose verdict is one per fold class.

    check(n, table, rows) returns {case: text} for the failing cases.  It
    reads n only through the table at fold(n) and through n's parity, which
    the fold keeps (n = +-fold(n) mod 2p), so it runs once per class, on the
    class's first exponent, and its failures are replayed as "n=<n>, <text>"
    for every n of the class.
    """
    def failures(group, table, rows):
        bad = check(group[0], table, rows)
        return {n: {case: f"n={n}, {text}" for case, text in bad.items()} for n in group}

    return failures


def _restricted(ctx: RingContext, rows: np.ndarray) -> np.ndarray:
    """Rows of V_1..V_q restricted to the subgroup of order p, as rows of V_1..V_p, int64 if nu > 1.

    With m = p^(nu-1), V_{am+b} restricts to b V_{a+1} + (m-b) V_a for
    1 <= b <= m, as (g - 1)^m = g^m - 1 in characteristic p: the columns fall
    into p blocks a of m columns b.  At nu = 1 the restriction is the identity.
    """
    if ctx.nu == 1:
        return rows
    p, m = ctx.p, ctx.order // ctx.p
    blocks = rows.reshape(len(rows), p, m)
    b = np.arange(1, m + 1, dtype=np.int64)
    out = np.zeros((len(rows), p + 1), np.int64)  # column i holds V_i, V_0 = 0 dropped below
    # einsum casts rows to int64 a buffer at a time; integer matmul copies them whole
    out[:, 1:] = np.einsum("rab,b->ra", blocks, b)
    out[:, :-1] += np.einsum("rab,b->ra", blocks, m - b)
    return out[:, 1:]


@lru_cache(maxsize=1)
def _af_adams(p: int, n: int) -> np.ndarray:
    """psi^n on V_0..V_p at (p, 1) for a raw exponent n prime to p, by the closed form of [AF].

    Row r holds the multiplicities of V_1..V_p in psi^n(V_r), row 0 is zero.
    V_r is [r] = sum over i < r of z^(r-1-2i), so psi^n(V_r) is
    (z - 1/z) [r] at z^n, read mod z^(2p) - 1: its coefficient of z^t is the
    multiplicity of V_t for 1 <= t < p, and V_p, which maps to 0, is read
    from the dimension r.  Since [r] = [r-2] + z^(n(r-1)) + z^(-n(r-1)), the
    rows of one parity of r are one cumulative sum; only the powers z^0..z^p
    are kept, the ones the coefficients read.  Integers throughout.
    """
    two_p = 2 * p
    r = np.arange(2, p + 1)
    e = (r - 1) * n % two_p  # neither e nor -e is 0 or p, and e != -e, as p does not divide n(r-1)
    sums = np.zeros((p + 1, two_p), np.int32)  # row r, column k: the coefficient of z^k in [r], <= r
    sums[1, 0] = 1
    sums[r, e] = 1
    sums[r, two_p - e] = 1
    sums = sums[:, : p + 1]
    np.cumsum(sums[0::2], axis=0, out=sums[0::2])
    np.cumsum(sums[1::2], axis=0, out=sums[1::2])
    out = np.empty((p + 1, p), np.int64)
    out[:, :-1] = sums[:, :-2] - sums[:, 2:]
    out[:, -1] = (np.arange(p + 1) - out[:, :-1] @ np.arange(1, p)) // p
    out.flags.writeable = False
    return out


def _against_closed_form(ctx: RingContext, label: str, names: dict[int, str]) -> _Sweep:
    """One clause over the raw exponents n of names, in order, each on V_1..V_q.

    Case (n, s) passes iff the table's psi^fold(n)(V_s), restricted to the
    subgroup of order p, equals the closed form at the raw n applied to the
    restriction of V_s; a failure reads "<names[n]>, s=<s>".  Every raw n
    gets the closed form at its residue mod 2p, the last one kept, so
    neither residue of a fold class stands in for the other.
    """
    basis = _restricted(ctx, np.identity(ctx.order, np.int8)) if ctx.nu > 1 else None

    def failures(group, table, rows):
        got, bad = _restricted(ctx, rows[:, 1:]), {}
        for n in group:
            want = _af_adams(ctx.p, n % (2 * ctx.p))[1:]
            if basis is not None:
                want = basis @ want
            wrong = np.flatnonzero((got != want).any(axis=1)) + 1
            if wrong.size:
                bad[n] = {s: f"{names[n]}, s={s}" for s in wrong.tolist()}
        return bad

    return _Sweep(label, list(names), range(1, ctx.order + 1), failures)


def _dimension(ctx: RingContext) -> _Sweep:
    def check(n, table, rows):
        dims = np.einsum("st,t->s", rows, np.arange(ctx.order + 1, dtype=np.int64))
        wrong = np.flatnonzero(dims != np.arange(1, ctx.order + 1)) + 1
        return {s: f"s={s}" for s in wrong.tolist()}

    return _Sweep("dimension preserved on basis", _valid_exponents(ctx, 2 * ctx.p),
                  range(1, ctx.order + 1), _class_wide(check))


def run_homomorphism(ctx: RingContext) -> Outcomes:
    rng = random.Random(1801)
    ns = _valid_exponents(ctx, 2 * ctx.p)
    cap = _desk_index(ctx)
    for _ in range(30):
        n = rng.choice(ns)
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        ok = adams(ctx, n, multiply(a, b)) == multiply(adams(ctx, n, a), adams(ctx, n, b))
        yield "multiplicative on random products", (
            None if ok else f"n={n}, a={format_element(a)}, b={format_element(b)}"
        )
    for _ in range(20):
        n, n2 = rng.choice(ns), rng.choice(ns)
        s = rng.randint(1, ctx.order)
        ok = adams(ctx, n, adams_basis(ctx, n2, s)) == adams_basis(ctx, n * n2, s)
        yield "composition multiplies exponents", None if ok else f"n={n}, n'={n2}, s={s}"
    for _ in range(20):
        n = rng.choice(ns)
        a = _random_element(ctx, rng, ctx.order)
        b = _random_element(ctx, rng, ctx.order)
        ok = adams(ctx, n, a + b) == adams(ctx, n, a) + adams(ctx, n, b)
        yield "additive", None if ok else f"n={n}, a={format_element(a)}"


def _periodicity(ctx: RingContext) -> _Sweep:
    two_p = 2 * ctx.p
    names = {two_p + c: f"c={c}" for c in _valid_exponents(ctx, two_p)}
    return _against_closed_form(ctx, "exponent period 2p on basis", names)


def _symmetry(ctx: RingContext) -> _Sweep:
    names = {2 * ctx.p - j: f"j={j}" for j in range(1, ctx.p)}
    return _against_closed_form(ctx, "exponent reflection at 2p on basis", names)


def _reciprocity(ctx: RingContext) -> _Sweep:
    def check(n, table, rows):
        bad = {}
        for m in range(ctx.nu + 1):
            pm = ctx.p**m
            sums = rows[:pm].copy()  # row r - 1: the value on V_r plus the value on V_{pm-r}
            sums[:-1] += rows[: pm - 1][::-1]
            sums[:, pm] -= 1
            for r in (np.flatnonzero(sums.any(axis=1)) + 1).tolist():
                bad[m, r] = f"m={m}, r={r}"
        return bad

    cases = [(m, r) for m in range(ctx.nu + 1) for r in range(1, ctx.p**m + 1)]
    even = [n for n in _valid_exponents(ctx, 2 * ctx.p) if n % 2 == 0]
    return _Sweep("complement sum equals the regular module (even n)", even, cases,
                  _class_wide(check))


def _shape(ctx: RingContext) -> _Sweep:
    def check(n, table, rows):
        clauses = enumerate(_shape_clauses(ctx, n, table, 1), 1)
        return {s: f"s={s}, clause={clause.value}" for s, clause in clauses if clause is not None}

    return _Sweep(_SHAPE_LABEL, _valid_exponents(ctx, ctx.order), range(1, ctx.order + 1),
                  _class_wide(check))


def run_heller(ctx: RingContext) -> Outcomes:
    rng = random.Random(2205)
    for m in range(0, ctx.nu + 1):
        pm = ctx.p**m
        for r in range(1, pm + 1):
            ok = dim(heller(m, basis_element(ctx, r))) == pm - r
            yield "translate dimension", None if ok else f"m={m}, r={r}"
    for m in range(0, ctx.nu + 1):
        for _ in range(10):
            w = _random_element(ctx, rng, ctx.p**m)
            ok = congruent_mod_regular(m, heller(m, heller(m, w)), w)
            yield "translate involution mod regular", (
                None if ok else f"m={m}, w={format_element(w)}"
            )
    for m in range(0, ctx.nu + 1):
        pm = ctx.p**m
        for _ in range(8):
            a = _random_element(ctx, rng, pm, terms=2)
            b = _random_element(ctx, rng, pm, terms=2)
            ok = congruent_mod_regular(m, heller(m, multiply(a, b)), multiply(heller(m, a), b))
            yield "translate slides across products mod regular", (
                None if ok else f"m={m}, a={format_element(a)}, b={format_element(b)}"
            )


def run_gow_laffey(ctx: RingContext) -> Outcomes:
    for m in range(1, ctx.nu + 1):
        for r in range(1, ctx.p**m + 1):
            ok = gow_laffey_check(ctx, m, r).ok
            yield "degree-2 reciprocity, both identities", None if ok else f"m={m}, r={r}"


# pairs checked against the oracle's pair_product, which costs a median
# 2 ms per pair at (7,2) and 37 ms at (1021,1), where the sample's largest
# pair, (147,108), takes about 12 s
_ORACLE_PAIR_SAMPLE = 24


def run_oracle(ctx: RingContext) -> Outcomes:
    rng = random.Random(4217)
    p, nu = ctx.p, ctx.nu

    for r in range(1, ctx.order + 1):
        ok = decompose(ctx, realize(ctx, r)).multiplicities == ((r, 1),)
        yield "realize/decompose round trip", None if ok else f"r={r}"

    for m in range(0, nu):
        x = ring_generator(ctx, m)
        pm = p**m
        for r in range(0, (p - 1) * pm + 1):
            expected = GreenElement.from_terms(ctx, [(r + pm, 1), (r - pm, 1)])
            ok = multiply(x, basis_element(ctx, r)) == expected
            yield "generator ladder products", None if ok else f"m={m}, r={r}"

    for m in range(0, nu + 1):
        pm = p**m
        vq = basis_element(ctx, pm)
        for r in range(1, pm + 1):
            ok = multiply(vq, basis_element(ctx, r)) == r * vq
            yield "regular module absorbs products", None if ok else f"m={m}, r={r}"

    for m in range(1, nu + 1):
        pm = p**m
        va = basis_element(ctx, pm - 1)
        for r in range(1, pm + 1):
            expected = GreenElement.from_terms(ctx, {pm: r - 1, pm - r: 1})
            ok = multiply(va, basis_element(ctx, r)) == expected
            yield "almost-regular row products", None if ok else f"m={m}, r={r}"

    for m in range(1, nu + 1):
        pm = p**m
        expected = GreenElement.from_terms(ctx, {pm: pm - 2, 1: 1})
        ok = multiply(basis_element(ctx, pm - 1), basis_element(ctx, pm - 1)) == expected
        yield "almost-regular squares", None if ok else f"m={m}"

    cap = _desk_index(ctx)
    label = "commutative, associative, unital on random triples"
    for _ in range(25):
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        c = _random_element(ctx, rng, cap)
        ab = multiply(a, b)
        if ab != multiply(b, a) or multiply(ab, c) != multiply(a, multiply(b, c)):
            yield label, f"a={format_element(a)}, b={format_element(b)}, c={format_element(c)}"
        elif multiply(a, one(ctx)) != a:
            yield label, f"identity: a={format_element(a)}"
        else:
            yield label, None

    for _ in range(15):
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        ok = dim(multiply(a, b)) == dim(a) * dim(b)
        yield "dimension is multiplicative", (
            None if ok else f"a={format_element(a)}, b={format_element(b)}"
        )

    for m in range(0, nu):
        pm = p**m
        x = ring_generator(ctx, m)
        # F_k = X F_(k-1) - F_(k-2) from F_(-1) = 0, F_0 = 1: one product per k
        fk1, fk = zero(ctx), one(ctx)
        for k in range(0, p):
            for r in range(1, pm + 1):
                lhs = basis_element(ctx, k * pm + r)
                rhs = multiply(fk, basis_element(ctx, r)) + multiply(
                    fk1, basis_element(ctx, pm - r)
                )
                ok = lhs == rhs
                yield "second-kind ladder reconstruction", None if ok else f"m={m}, k={k}, r={r}"
            fk1, fk = fk, multiply(x, fk) - fk1

    # multiply itself comes from a closed form derived from the ladder, so the
    # clauses above are partly circular; this one checks basis products against
    # the oracle's pair_product, the Smith valuations of the Jordan pair, on
    # a seeded sample of pairs the oracle cap admits
    pair_rng = random.Random(6043)
    limit = oracle_cap()
    for _ in range(_ORACLE_PAIR_SAMPLE):
        a = pair_rng.randint(1, min(ctx.order, limit))
        b = pair_rng.randint(1, min(ctx.order, limit // a))
        ok = basis_product(p, a, b) == pair_product(ctx, a, b).multiplicities
        yield "ladder basis products match the oracle", None if ok else f"a={a}, b={b}"


# each suite's maker: a _Sweep for an exponent sweep, else a stream of outcomes
_SUITES = {
    "dimension": _dimension,
    "homomorphism": run_homomorphism,
    "periodicity": _periodicity,
    "symmetry": _symmetry,
    "reciprocity": _reciprocity,
    "shape": _shape,
    "heller": run_heller,
    "gow-laffey": run_gow_laffey,
    "oracle": run_oracle,
}
# "all" runs every suite in the order above
SUITE_NAMES = (*_SUITES, "all")
_ODD_P_ONLY = ("reciprocity", "gow-laffey")


def run_suite(ctx: RingContext, suite: str) -> list[SuiteReport]:
    """Run one named suite (or all of them) and return their reports, in SUITE_NAMES order.

    The exponent sweeps requested share one walk over the fold classes
    (_sweep_failures); any other suite's stream is read in order, so its
    seeded draws come in one fixed order.  At p = 2 an odd-p-only suite
    raises NotApplicableError when requested alone and is skipped under "all".
    """
    if suite != "all" and suite not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}")
    names = [*_SUITES] if suite == "all" else [suite]
    skipped = [name for name in names if ctx.p == 2 and name in _ODD_P_ONLY]
    if skipped and suite != "all":
        raise NotApplicableError(f"suite {suite!r} requires odd p")
    reports = {name: SuiteReport(name) for name in names}
    sweeps = {}
    for name in names:
        made = None if name in skipped else _SUITES[name](ctx)
        if made is None:
            reports[name].skip(name, "requires odd p")
        elif isinstance(made, _Sweep):
            sweeps[name] = made
        else:
            for label, outcomes in groupby(made, itemgetter(0)):
                reports[name].record(label, (failure for _, failure in outcomes))
    # the walk runs last: after it frees a dense view (8 MB at q = 1024) the C allocator
    # keeps arrays up to that size in its heap, 6 MB more of the oracle's at (2,10)
    for name, bad in _sweep_failures(ctx, sweeps).items():
        label, ns, cases, _ = sweeps[name]
        reports[name].record(label, (bad.get(n, {}).get(case) for n in ns for case in cases))
    return list(reports.values())
