"""Named verification sweeps driven by the command line and the test suite.

Each suite runs a family of identities at a given context and reports one
line per checked clause, with the first counterexample element attached on
failure.  All sampling uses fixed seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .adams import (
    adams,
    adams_basis,
    adams_on_generator,
    fold_exponent,
    shape_check,
    signs_alternate,
    spread,
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
from .polynomials import dickson_first, dickson_second
from .powers import gow_laffey_check

SUITE_NAMES = (
    "dimension",
    "homomorphism",
    "periodicity",
    "symmetry",
    "reciprocity",
    "shape",
    "heller",
    "gow-laffey",
    "oracle",
    "all",
)


class NotApplicableError(GreenRingError):
    """The requested suite does not apply at this context (e.g. needs odd p)."""


@dataclass
class SuiteReport:
    name: str
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, label: str, total: int, bad: list[str]) -> None:
        if bad:
            self.lines.append(f"{label}: {total - len(bad)}/{total} pass; first counterexample: {bad[0]}")
            self.failures.append(f"{label}: {bad[0]}")
        else:
            self.lines.append(f"{label}: {total}/{total} pass")

    def skip(self, label: str, reason: str) -> None:
        self.lines.append(f"{label}: skipped ({reason})")


def _valid_exponents(ctx: RingContext, bound: int) -> list[int]:
    return [n for n in range(1, bound + 1) if n % ctx.p]


def paired_structure_ok(ctx: RingContext, n: int, s: int, m: int) -> bool:
    """Joint structure of the values on V_s and its complement V_{p^m - s}.

    Even n: the two values sum to the regular module and exactly one of them
    carries the regular summand, with all other indices odd.  Odd n: the value
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
        for value in (a_val, b_val):
            if any(abs(c) != 1 for _, c in value.items()):
                return False
            if not signs_alternate(value):
                return False
            if any(r % 2 == 0 for r, _ in value.items() if r != pm):
                return False
        return True
    # odd n: pick the side with an odd-dimensional module as the reference
    if s % 2 == 1 or ctx.p == 2:
        ref, other = a_val, b_val
    else:
        ref, other = b_val, a_val
    if len(ref.terms) % 2 == 0 or not signs_alternate(ref):
        return False
    reflected = GreenElement.from_terms(ctx, [(pm - r, c) for r, c in ref.items()])
    return other == reflected


def _random_element(ctx: RingContext, rng: random.Random, max_index: int, terms: int = 3) -> GreenElement:
    parts = {}
    for _ in range(rng.randint(1, terms)):
        r = rng.randint(1, max_index)
        parts[r] = parts.get(r, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return GreenElement.from_terms(ctx, parts)


def _desk_index(ctx: RingContext) -> int:
    # keep random products desk-scale at large contexts
    return min(ctx.order, 2 * ctx.p)


def run_dimension(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("dimension")
    bad = []
    total = 0
    for n in _valid_exponents(ctx, 2 * ctx.p):
        for s in range(1, ctx.order + 1):
            total += 1
            if dim(adams_basis(ctx, n, s)) != s:
                bad.append(f"n={n}, s={s}")
    rep.record("dimension preserved on basis", total, bad)
    return rep


def run_homomorphism(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("homomorphism")
    rng = random.Random(1801)
    ns = _valid_exponents(ctx, 2 * ctx.p)
    cap = _desk_index(ctx)
    bad = []
    total = 0
    for _ in range(30):
        n = rng.choice(ns)
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        total += 1
        if adams(ctx, n, multiply(a, b)) != multiply(adams(ctx, n, a), adams(ctx, n, b)):
            bad.append(f"n={n}, a={format_element(a)}, b={format_element(b)}")
    rep.record("multiplicative on random products", total, bad)
    bad = []
    total = 0
    for _ in range(20):
        n, n2 = rng.choice(ns), rng.choice(ns)
        s = rng.randint(1, ctx.order)
        total += 1
        if adams(ctx, n, adams_basis(ctx, n2, s)) != adams_basis(ctx, n * n2, s):
            bad.append(f"n={n}, n'={n2}, s={s}")
    rep.record("composition multiplies exponents", total, bad)
    bad = []
    total = 0
    for _ in range(20):
        n = rng.choice(ns)
        a = _random_element(ctx, rng, ctx.order)
        b = _random_element(ctx, rng, ctx.order)
        total += 1
        if adams(ctx, n, a + b) != adams(ctx, n, a) + adams(ctx, n, b):
            bad.append(f"n={n}, a={format_element(a)}")
    rep.record("additive", total, bad)
    return rep


def run_periodicity(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("periodicity")
    bad = []
    total = 0
    for c in _valid_exponents(ctx, 2 * ctx.p):
        for s in range(1, ctx.order + 1):
            total += 1
            lhs = adams_basis(ctx, 2 * ctx.p + c, s, fold=False)
            rhs = adams_basis(ctx, c, s, fold=False)
            if lhs != rhs:
                bad.append(f"c={c}, s={s}")
    rep.record("exponent period 2p on basis", total, bad)
    return rep


def run_symmetry(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("symmetry")
    bad = []
    total = 0
    for j in range(1, ctx.p):
        for s in range(1, ctx.order + 1):
            total += 1
            lhs = adams_basis(ctx, 2 * ctx.p - j, s, fold=False)
            rhs = adams_basis(ctx, j, s, fold=False)
            if lhs != rhs:
                bad.append(f"j={j}, s={s}")
    rep.record("exponent reflection at 2p on basis", total, bad)
    return rep


def run_reciprocity(ctx: RingContext) -> SuiteReport:
    if ctx.p == 2:
        raise NotApplicableError("requires odd p")
    rep = SuiteReport("reciprocity")
    bad = []
    total = 0
    for n in _valid_exponents(ctx, 2 * ctx.p):
        if n % 2:
            continue
        for m in range(0, ctx.nu + 1):
            pm = ctx.p**m
            vq = basis_element(ctx, pm)
            for r in range(1, pm + 1):
                total += 1
                value = adams_basis(ctx, n, r) + adams(ctx, n, basis_element(ctx, pm - r))
                if value != vq:
                    bad.append(f"n={n}, m={m}, r={r}")
    rep.record("complement sum equals the regular module (even n)", total, bad)
    return rep


def run_shape(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("shape")
    bad = []
    total = 0
    for n in _valid_exponents(ctx, ctx.order):
        for s in range(1, ctx.order + 1):
            total += 1
            verdict = shape_check(ctx, n, s)
            if not verdict.ok:
                bad.append(f"n={n}, s={s}, clause={verdict.violated.value}")
    if bad:
        rep.lines.append(
            f"alternating shape: {total - len(bad)}/{total} (n,s) pairs pass; first: {bad[0]}"
        )
        rep.failures.append(bad[0])
    else:
        rep.lines.append(f"alternating shape: {total}/{total} (n,s) pairs pass")
    return rep


def run_heller(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("heller")
    rng = random.Random(2205)
    bad = []
    total = 0
    for m in range(0, ctx.nu + 1):
        pm = ctx.p**m
        for r in range(1, pm + 1):
            total += 1
            if dim(heller(m, basis_element(ctx, r))) != pm - r:
                bad.append(f"m={m}, r={r}")
    rep.record("translate dimension", total, bad)
    bad = []
    total = 0
    for m in range(0, ctx.nu + 1):
        pm = ctx.p**m
        for _ in range(10):
            w = _random_element(ctx, rng, pm)
            total += 1
            if not congruent_mod_regular(m, heller(m, heller(m, w)), w):
                bad.append(f"m={m}, w={format_element(w)}")
    rep.record("translate involution mod regular", total, bad)
    bad = []
    total = 0
    for m in range(0, ctx.nu + 1):
        pm = ctx.p**m
        for _ in range(8):
            a = _random_element(ctx, rng, pm, terms=2)
            b = _random_element(ctx, rng, pm, terms=2)
            total += 1
            if not congruent_mod_regular(
                m, heller(m, multiply(a, b)), multiply(heller(m, a), b)
            ):
                bad.append(f"m={m}, a={format_element(a)}, b={format_element(b)}")
    rep.record("translate slides across products mod regular", total, bad)
    return rep


def run_gow_laffey(ctx: RingContext) -> SuiteReport:
    if ctx.p == 2:
        raise NotApplicableError("requires odd p")
    rep = SuiteReport("gow-laffey")
    bad = []
    total = 0
    for m in range(1, ctx.nu + 1):
        pm = ctx.p**m
        for r in range(1, pm + 1):
            total += 1
            verdict = gow_laffey_check(ctx, m, r)
            if not verdict.ok:
                bad.append(f"m={m}, r={r}")
    rep.record("degree-2 reciprocity, both identities", total, bad)
    return rep


# pairs checked against the oracle's pair_product, which costs a median
# 0.2 s per pair at (7,2)
_ORACLE_PAIR_SAMPLE = 24


def run_oracle(ctx: RingContext) -> SuiteReport:
    rep = SuiteReport("oracle")
    rng = random.Random(4217)
    p, nu = ctx.p, ctx.nu

    bad = []
    for r in range(1, ctx.order + 1):
        report = decompose(ctx, realize(ctx, r))
        if report.multiplicities != ((r, 1),):
            bad.append(f"r={r}")
    rep.record("realize/decompose round trip", ctx.order, bad)

    bad = []
    total = 0
    for m in range(0, nu):
        x = ring_generator(ctx, m)
        pm = p**m
        for r in range(0, (p - 1) * pm + 1):
            total += 1
            expected = GreenElement.from_terms(ctx, [(r + pm, 1), (r - pm, 1)])
            if multiply(x, basis_element(ctx, r)) != expected:
                bad.append(f"m={m}, r={r}")
    rep.record("generator ladder products", total, bad)

    bad = []
    total = 0
    for m in range(0, nu + 1):
        pm = p**m
        vq = basis_element(ctx, pm)
        for r in range(1, pm + 1):
            total += 1
            if multiply(vq, basis_element(ctx, r)) != r * vq:
                bad.append(f"m={m}, r={r}")
    rep.record("regular module absorbs products", total, bad)

    bad = []
    total = 0
    for m in range(0, nu + 1):
        pm = p**m
        if pm == 1:
            continue
        va = basis_element(ctx, pm - 1)
        for r in range(1, pm + 1):
            total += 1
            expected = GreenElement.from_terms(ctx, {pm: r - 1, pm - r: 1})
            if multiply(va, basis_element(ctx, r)) != expected:
                bad.append(f"m={m}, r={r}")
    rep.record("almost-regular row products", total, bad)

    bad = []
    total = 0
    for m in range(1, nu + 1):
        pm = p**m
        total += 1
        expected = GreenElement.from_terms(ctx, {pm: pm - 2, 1: 1})
        if multiply(basis_element(ctx, pm - 1), basis_element(ctx, pm - 1)) != expected:
            bad.append(f"m={m}")
    rep.record("almost-regular squares", total, bad)

    cap = _desk_index(ctx)
    bad = []
    total = 0
    for _ in range(25):
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        c = _random_element(ctx, rng, cap)
        total += 1
        if multiply(a, b) != multiply(b, a) or multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            bad.append(f"a={format_element(a)}, b={format_element(b)}, c={format_element(c)}")
        if multiply(a, one(ctx)) != a:
            bad.append(f"identity: a={format_element(a)}")
    rep.record("commutative, associative, unital on random triples", total, bad)

    bad = []
    total = 0
    for _ in range(15):
        a = _random_element(ctx, rng, cap)
        b = _random_element(ctx, rng, cap)
        total += 1
        if dim(multiply(a, b)) != dim(a) * dim(b):
            bad.append(f"a={format_element(a)}, b={format_element(b)}")
    rep.record("dimension is multiplicative", total, bad)

    bad = []
    total = 0
    for m in range(0, nu):
        pm = p**m
        x = ring_generator(ctx, m)
        for k in range(0, p):
            fk = dickson_second(k).evaluate(x, one(ctx), multiply)
            fk1 = dickson_second(k - 1).evaluate(x, one(ctx), multiply)
            for r in range(1, pm + 1):
                total += 1
                lhs = basis_element(ctx, k * pm + r)
                rhs = multiply(fk, basis_element(ctx, r)) + multiply(
                    fk1, basis_element(ctx, pm - r)
                )
                if lhs != rhs:
                    bad.append(f"m={m}, k={k}, r={r}")
    rep.record("second-kind ladder reconstruction", total, bad)

    # multiply itself comes from the ladder, so the clauses above are partly
    # circular; this one checks ladder basis products against the oracle's
    # pair_product, the chain-ring Smith valuations of the Jordan pair, on a
    # seeded sample of pairs the oracle cap admits
    pair_rng = random.Random(6043)
    limit = oracle_cap()
    bad = []
    for _ in range(_ORACLE_PAIR_SAMPLE):
        a = pair_rng.randint(1, min(ctx.order, limit))
        b = pair_rng.randint(1, min(ctx.order, limit // a))
        if basis_product(p, a, b) != pair_product(ctx, a, b).multiplicities:
            bad.append(f"a={a}, b={b}")
    rep.record("ladder basis products match the oracle", _ORACLE_PAIR_SAMPLE, bad)
    return rep


_RUNNERS = {
    "dimension": run_dimension,
    "homomorphism": run_homomorphism,
    "periodicity": run_periodicity,
    "symmetry": run_symmetry,
    "reciprocity": run_reciprocity,
    "shape": run_shape,
    "heller": run_heller,
    "gow-laffey": run_gow_laffey,
    "oracle": run_oracle,
}


def run_suite(ctx: RingContext, suite: str) -> list[SuiteReport]:
    """Run one named suite (or all of them) and return their reports.

    Requesting an odd-p-only suite at p = 2 raises NotApplicableError; under
    "all" such suites are reported as skipped instead.
    """
    if suite == "all":
        reports = []
        for name in SUITE_NAMES[:-1]:
            try:
                reports.extend(run_suite(ctx, name))
            except NotApplicableError as exc:
                rep = SuiteReport(name)
                rep.skip(name, str(exc))
                reports.append(rep)
        return reports
    runner = _RUNNERS.get(suite)
    if runner is None:
        raise ValueError(f"unknown suite {suite!r}")
    return [runner(ctx)]
