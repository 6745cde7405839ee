import importlib
import json
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenring import (
    ContextMismatchError,
    DivisibilityError,
    GreenElement,
    IndexRangeError,
    RingContext,
    ShapeClause,
    ShapeVerdict,
    SupportError,
    adams,
    adams_basis,
    adams_on_generator,
    adams_table,
    basis_element,
    clear_cache,
    congruent_mod_regular,
    dickson_first,
    dim,
    fold_exponent,
    format_element,
    heller,
    multiply,
    one,
    parse_element,
    ring_generator,
    shape_check,
    spread,
    to_dict,
    zero,
)
from greenring.adams import (
    _context_cache,
    _keyed,
    _nonzeros,
    _Rows,
    _shape_clauses,
    _table,
    _value,
    signs_alternate,
)
from greenring.cli import _table_chunks, main
from greenring.core import _unit_terms
from greenring.suites import _af_adams, _restricted

# the module, which the package's function of the same name hides
adams_module = importlib.import_module("greenring.adams")
cli_module = importlib.import_module("greenring.cli")

CTX7 = RingContext(7, 2)
CTX3 = RingContext(3, 2)

WORKED_23 = (
    "V49 - V47 + V45 - V39 + V37 - V35 + V33 - V31 + V25"
    " - V23 + V19 - V17 + V11 - V9 + V7 - V5 + V3"
)


def elements(ctx, lo=-3, hi=3):
    return st.lists(
        st.integers(lo, hi), min_size=ctx.order, max_size=ctx.order
    ).map(lambda cs: GreenElement(ctx, cs))


class TestFoldExponent:
    def test_small_values(self):
        assert fold_exponent(CTX7, 4) == 4

    def test_reflection_and_period(self):
        assert fold_exponent(CTX7, 8) == 6
        assert fold_exponent(CTX7, 12) == 2

    def test_p3(self):
        assert fold_exponent(CTX3, 5) == 1

    def test_zero(self):
        assert fold_exponent(CTX7, 0) == 0

    @pytest.mark.parametrize("c", [2.0, 2.5, True, "2"])
    def test_rejects_non_integer(self, c):
        # fold_exponent(ctx, 2.0) returned 2.0
        with pytest.raises(IndexRangeError, match="is not an integer"):
            fold_exponent(CTX7, c)
        assert type(fold_exponent(CTX7, np.int64(9))) is int

    def test_divisible_rejected(self):
        with pytest.raises(DivisibilityError):
            fold_exponent(CTX7, 14)

    def test_defining_property(self):
        for p in (3, 5, 7):
            ctx = RingContext(p, 1)
            for c in range(1, 6 * p):
                if c % p == 0:
                    continue
                g = fold_exponent(ctx, c)
                assert 1 <= g <= p - 1
                assert (c - g) % (2 * p) == 0 or (c + g) % (2 * p) == 0


class TestSpread:
    def test_level_zero(self):
        assert spread(CTX7, 0, 4, one(CTX7)) == parse_element(CTX7, "V5-V3")

    def test_offset_zero_is_identity(self):
        w = basis_element(CTX3, 2) - basis_element(CTX3, 1)
        assert spread(CTX3, 1, 0, w) == w

    def test_level_one(self):
        assert spread(CTX3, 1, 2, basis_element(CTX3, 2)) == parse_element(CTX3, "V8-V4")

    @pytest.mark.parametrize("m, i", [(True, 1), (1, 1.0), (0.0, 2)])
    def test_rejects_non_integer_level_or_offset(self, m, i):
        # spread(ctx, True, 1.0, V2) was V5.0 - V1.0
        with pytest.raises(IndexRangeError, match="is not an integer"):
            spread(CTX3, m, i, basis_element(CTX3, 2))

    def test_boundary_cancellation(self):
        # V_{ip^m - r} vanishes when r = p^m and i = 1: the V_0 term drops
        got = spread(CTX3, 1, 1, basis_element(CTX3, 3))
        assert got == basis_element(CTX3, 6)
        for ctx in (CTX3, CTX7, RingContext(2, 4), RingContext(5, 3)):
            for m in range(ctx.nu):
                pm = ctx.p**m
                got = spread(ctx, m, 1, basis_element(ctx, pm))
                assert got == basis_element(ctx, 2 * pm), (ctx, m)
                assert got.terms == ((2 * pm, 1),)

    def test_support_checked(self):
        with pytest.raises(SupportError):
            spread(CTX3, 0, 1, basis_element(CTX3, 2))

    def test_rejects_element_of_another_context(self):
        # spread(CTX7, 0, 1, V1 of (3,2)) was V2 of (7,2)
        with pytest.raises(ContextMismatchError):
            spread(CTX7, 0, 1, basis_element(CTX3, 1))

    def test_range_checked(self):
        with pytest.raises(IndexRangeError):
            spread(CTX3, 2, 1, one(CTX3))
        with pytest.raises(IndexRangeError):
            spread(CTX3, 0, 3, one(CTX3))


def defined_spread(ctx, m, i, w):
    """V_r -> V_{ip^m+r} - V_{ip^m-r} as written, V_0 = 0 dropped by from_terms."""
    if i == 0:
        return w
    base = i * ctx.p**m
    return GreenElement.from_terms(
        ctx, [(base + r, c) for r, c in w.terms] + [(base - r, -c) for r, c in w.terms]
    )


def reference_adams_basis(ctx, n, s, memo):
    """The level recursion composed from the public spread map and +.

    Each spread is also checked against its definition, so a fault shared by
    spread and the recursion does not cancel out of the comparison.
    """
    if (n, s) not in memo:
        if s == 1:
            value = basis_element(ctx, 1)
        else:
            m = ctx.level(s) - 1
            q = ctx.p**m
            k = (s - 1) // q
            r = s - k * q
            on_r = reference_adams_basis(ctx, n, r, memo)
            on_comp = reference_adams_basis(ctx, n, q - r, memo) if q - r >= 1 else zero(ctx)
            value = zero(ctx)
            for j in range(k + 1):
                target = on_r if (k - j) % 2 == 0 else on_comp
                i = fold_exponent(ctx, j * n)
                term = spread(ctx, m, i, target)
                assert term == defined_spread(ctx, m, i, target), (m, i, target)
                value = value + term
        memo[n, s] = value
    return memo[n, s]


class TestRecursionMatchesSpreadRoute:
    @pytest.mark.parametrize("p,nu", [(3, 3), (5, 2), (7, 2), (2, 5)])
    def test_folded_exponents(self, p, nu):
        ctx = RingContext(p, nu)
        memo = {}
        for n in range(1, p):
            # each route from an empty memo, so neither reads the other's values
            clear_cache(ctx)
            table = adams_table(ctx, n)
            clear_cache(ctx)
            for s in range(1, ctx.order + 1):
                want = reference_adams_basis(ctx, n, s, memo)
                assert adams_basis(ctx, n, s) == want, (n, s)
                assert table[s - 1] == want, (n, s)

    @pytest.mark.parametrize("p,nu", [(3, 3), (5, 2), (7, 2), (2, 5)])
    def test_raw_exponents(self, p, nu):
        # adams_basis folds n first; the reference runs the recursion on the
        # raw n, folding only the offsets j * n, where offset 1 meets the
        # dropped V_0 term
        ctx = RingContext(p, nu)
        clear_cache(ctx)
        memo = {}
        for n in range(1, 4 * p + 1):
            if n % p == 0:
                continue
            for s in range(1, ctx.order + 1):
                got = adams_basis(ctx, n, s)
                assert got == reference_adams_basis(ctx, n, s, memo), (n, s)
        assert all(key[0] < p for key in _context_cache(ctx))


@pytest.mark.parametrize("p, nu, n", [(2, 10, 1), (3, 6, 2), (5, 4, 2), (31, 2, 11), (1021, 1, 5)])
def test_table_temporaries_stay_small(p, nu, n):
    # what a table allocates beyond the values it keeps: its blocked int32
    # working arrays and the terms of one read-out at a time
    ctx = RingContext(p, nu)
    clear_cache(ctx)
    tracemalloc.start()
    try:
        adams_table(ctx, n)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < 1 << 20, (peak - retained) / (1 << 20)


# run in a fresh interpreter, so no earlier table has faulted in the pages
COLD_TABLE_FAULTS = """
import resource
from greenring import RingContext, adams_table

ctx = RingContext(2, 10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
adams_table(ctx, 5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_cold_table_faults_its_working_set_in_once():
    # every block works in one working set: per-block arrays of 128 KiB or
    # more are mapped afresh and fault in again, 3,300-4,000 minor faults
    # for this table against about 200 with one working set
    proc = subprocess.run([sys.executable, "-c", COLD_TABLE_FAULTS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


# two planted tables of rows of multiplicities +-1 at (5,2), each with the
# terms of its rows.  The first holds 4, 0, 2 and 1 terms: a chunk of 1 term
# ends after every row with terms, one of 5 after the third row, one of 7 or
# the default after the last.  The second holds 0, 3, 1 and 0 terms, so the
# first chunk starts on an empty row and the last ends on one: a chunk of 1
# term holds rows 1-2, then row 3, then the empty row 4 alone, and the others
# hold all four rows
UNIT_BLOCKS = [
    ([[[0, 1, -1, 0, 1, 0, -1], [0, 0, 0, 0, 0, 0, 0]],
      [[0, 0, 1, 0, 0, 0, -1], [0, -1, 0, 0, 0, 0, 0]]],
     [((1, 1), (2, -1), (4, 1), (6, -1)), (), ((2, 1), (6, -1)), ((1, -1),)]),
    ([[[0, 0, 0, 0, 0, 0, 0], [0, -1, 0, 1, 0, 0, 1]],
      [[0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0]]],
     [(), ((1, -1), (3, 1), (6, 1)), ((5, 1),), ()]),
]


@pytest.mark.parametrize("chunk", [1, 5, 7, cli_module._CHUNK_TERMS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_readout_and_text_of_unit_rows(chunk, fmt, monkeypatch):
    # the read-out and the text of rows of multiplicities +-1, empty rows
    # among them; the CSV leads of the rows with terms are -, -, - and then
    # +, +, and the JSON leads +, +, - and then -, +
    monkeypatch.setattr(cli_module, "_CHUNK_TERMS", chunk)
    ctx = RingContext(5, 2)
    units = _unit_terms(ctx.order)
    for block, terms in UNIT_BLOCKS:
        counts, cols, coefs = _nonzeros(np.array(block, np.int32))
        table = _keyed(_Rows(np.concatenate([[0], np.cumsum(counts)]), cols, coefs))
        got = [_value(ctx, table, s) for s in range(1, 5)]
        assert [v.terms for v in got] == terms
        assert all(t is units[2 * t[0] + (t[1] < 0)] for v in got for t in v.terms)
        # a row reads the same whichever rows were read before it
        assert [_value(ctx, table, s) for s in range(4, 0, -1)] == got[::-1]
        # the rows' text, as format_element and to_dict write the same elements
        text = "".join(_table_chunks(ctx, 3, table, fmt))
        if fmt == "csv":
            want = "s,dim,expression\n" + "".join(
                f"{s},{s},{format_element(v)}\n" for s, v in enumerate(got, 1))
        else:
            want = '{"p":5,"nu":2,"n":3,"rows":[' + ",".join(
                json.dumps({"s": s, "dim": s, "element": to_dict(v)}, separators=(",", ":"))
                for s, v in enumerate(got, 1)) + "]}\n"
        assert text == want


@pytest.mark.parametrize("wide", [2, -2])
def test_keyed_rejects_a_wide_multiplicity(wide):
    # the shape law puts every Adams multiplicity in {-1, 0, 1}, so a table
    # row holding another is a kernel fault: it reaches neither the memo
    # nor the `table` text
    rows = _Rows(np.array([0, 2, 3]), np.array([1, 3, 2], np.int32), np.array([1, wide, -1], np.int32))
    with pytest.raises(AssertionError, match="internal consistency failure"):
        _keyed(rows)


def test_memo_keeps_a_tabled_class_in_four_bytes_a_term(capsys):
    # after `table`, the memo holds the class as one int32 key per term and
    # nothing else in arrays: not the kernel's cols, coefs or int64 starts
    ctx = RingContext(31, 2)
    clear_cache(ctx)
    assert main(["table", "--p", "31", "--nu", "2", "--n", "3"]) == 0
    capsys.readouterr()
    entry = _context_cache(ctx).tables[3]
    arrays = [x for field in entry for x in (field if isinstance(field, tuple) else (field,))
              if isinstance(x, np.ndarray)]
    assert entry.starts[-1] > 0
    assert sum(x.nbytes for x in arrays) == 4 * entry.starts[-1]


@pytest.mark.parametrize("p, nu", [(7, 2), (3, 3)])
def test_memo_reads_the_table_rows(p, nu, monkeypatch, capsys):
    # after `table`, a value of that fold class comes from the table's rows
    # without running the recursion; after clear_cache it recurses again
    ctx = RingContext(p, nu)
    memo = {}
    want = [reference_adams_basis(ctx, 2, s, memo) for s in range(1, ctx.order + 1)]
    clear_cache(ctx)
    assert main(["table", "--p", str(p), "--nu", str(nu), "--n", str(2 * p - 2)]) == 0
    capsys.readouterr()

    def no_recursion(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(adams_module, "_spread_into", no_recursion)
    assert [adams_basis(ctx, 2, s) for s in range(1, ctx.order + 1)] == want
    clear_cache(ctx)
    with pytest.raises(AssertionError, match="the recursion ran"):
        adams_basis(ctx, 2, ctx.order)


class TestAdamsWorkedValues:
    def test_v2(self):
        assert format_element(adams_basis(CTX7, 4, 2)) == "V5 - V3"

    def test_v5(self):
        assert format_element(adams_basis(CTX7, 4, 5)) == "V7 - V5 + V3"

    def test_v23_full_expansion(self):
        assert format_element(adams_basis(CTX7, 4, 23)) == WORKED_23

    def test_v23_dimension(self):
        assert dim(adams_basis(CTX7, 4, 23)) == 23

    def test_identity_exponent(self):
        for s in range(1, 10):
            assert adams_basis(CTX3, 1, s) == basis_element(CTX3, s)


class TestClosedForms:
    def test_almost_regular_odd_exponent(self):
        # odd n fixes V_{p^m - 1}
        assert adams_basis(CTX3, 5, 8) == basis_element(CTX3, 8)
        assert adams_basis(CTX3, 7, 8) == basis_element(CTX3, 8)

    def test_almost_regular_even_exponent(self):
        assert adams_basis(CTX3, 2, 8) == basis_element(CTX3, 9) - basis_element(CTX3, 1)

    def test_regular_fixed(self):
        for ctx in (CTX3, CTX7):
            for n in range(1, 2 * ctx.p + 1):
                if n % ctx.p == 0:
                    continue
                for m in range(ctx.nu + 1):
                    pm = ctx.p**m
                    assert adams_basis(ctx, n, pm) == basis_element(ctx, pm)

    def test_p2_identity_for_odd(self):
        ctx = RingContext(2, 3)
        for c in (1, 3, 5, 7, 9):
            for s in range(1, 9):
                assert adams_basis(ctx, c, s) == basis_element(ctx, s)


def restricted(ctx, w):
    """w restricted to the subgroup of order p, as a list of V_1..V_p multiplicities."""
    return _restricted(ctx, np.array([w.coeffs], np.int64))[0].tolist()


def closed_form_restricted(ctx, n, s):
    """psi^n(V_s) restricted to the subgroup of order p, by the [AF] closed form at the raw n."""
    rows = np.array([basis_element(ctx, s).coeffs], np.int64)
    return (_restricted(ctx, rows) @ _af_adams(ctx.p, n)[1:])[0].tolist()


class TestExponentLaws:
    # the folded recursion against the closed form at the raw exponent, on
    # restriction to the subgroup of order p; the closed form reads n only
    # through the powers z^(jn) mod z^(2p) - 1
    def test_period_two_p(self):
        for c in (1, 2, 4, 5):
            for s in range(1, CTX3.order + 1):
                got = restricted(CTX3, adams_basis(CTX3, 2 * 3 + c, s))
                assert got == closed_form_restricted(CTX3, 2 * 3 + c, s), (c, s)

    def test_reflection(self):
        for j in range(1, 7):
            for s in (1, 5, 23, 49):
                got = restricted(CTX7, adams_basis(CTX7, 14 - j, s))
                assert got == closed_form_restricted(CTX7, 14 - j, s), (j, s)

    def test_raw_exponents_past_two_p(self):
        for c in (4, 8, 12, 16, 20):
            for s in (2, 14, 23):
                got = restricted(CTX7, adams_basis(CTX7, c, s))
                assert got == closed_form_restricted(CTX7, c, s), (c, s)

    def test_divisible_exponent_rejected(self):
        with pytest.raises(DivisibilityError):
            adams_basis(CTX7, 7, 3)
        with pytest.raises(DivisibilityError):
            adams(CTX3, 6, one(CTX3))
        with pytest.raises(DivisibilityError):
            adams_table(CTX7, 14)
        with pytest.raises(DivisibilityError):
            adams_table(CTX7, 0)


class TestRingMapProperties:
    @given(elements(CTX3), elements(CTX3))
    def test_additive(self, a, b):
        assert adams(CTX3, 2, a + b) == adams(CTX3, 2, a) + adams(CTX3, 2, b)

    @given(elements(CTX3), elements(CTX3), st.sampled_from([1, 2, 4, 5]))
    def test_multiplicative(self, a, b, n):
        assert adams(CTX3, n, multiply(a, b)) == multiply(adams(CTX3, n, a), adams(CTX3, n, b))

    @given(st.sampled_from([1, 2, 4, 5]), st.sampled_from([1, 2, 4, 5]), st.integers(1, 9))
    def test_composition(self, n, n2, s):
        assert adams(CTX3, n, adams_basis(CTX3, n2, s)) == adams_basis(CTX3, n * n2, s)

    @given(elements(CTX3), st.sampled_from([1, 2, 4, 5]))
    def test_dim_preserved(self, w, n):
        assert dim(adams(CTX3, n, w)) == dim(w)


class TestComplementIdentities:
    def test_even_exponent_complement_sum(self):
        # even n: values on V_r and V_{p^m-r} add to the regular module
        for ctx in (CTX3, CTX7):
            for n in (2, 4):
                if n % ctx.p == 0:
                    continue
                for m in range(ctx.nu + 1):
                    pm = ctx.p**m
                    for r in range(1, pm + 1):
                        got = adams_basis(ctx, n, r) + adams(
                            ctx, n, basis_element(ctx, pm - r)
                        )
                        assert got == basis_element(ctx, pm), (ctx.p, n, m, r)

    def test_odd_exponent_heller_congruence(self):
        # odd n: value on the complement is the translate mod the regular module,
        # and dimension counting pins the exact multiple
        for ctx in (CTX3, CTX7):
            for n in (3, 5):
                if n % ctx.p == 0:
                    continue
                for m in range(ctx.nu + 1):
                    pm = ctx.p**m
                    for r in range(1, pm + 1):
                        lhs = adams(ctx, n, basis_element(ctx, pm - r))
                        translate = heller(m, adams_basis(ctx, n, r))
                        assert congruent_mod_regular(m, lhs, translate)
                        c, rem = divmod(pm - r - dim(translate), pm)
                        assert rem == 0
                        assert lhs == translate + c * basis_element(ctx, pm)

    def test_almost_regular_multiplication_rule(self):
        # value on V_{p^m-1} times value on V_r expands through the complement
        ctx = CTX3
        for n in (2, 5):
            for m in range(ctx.nu + 1):
                pm = ctx.p**m
                if pm == 1:
                    continue
                for r in range(1, pm + 1):
                    lhs = multiply(
                        adams_basis(ctx, n, pm - 1), adams_basis(ctx, n, r)
                    )
                    rhs = (r - 1) * basis_element(ctx, pm) + adams(
                        ctx, n, basis_element(ctx, pm - r)
                    )
                    assert lhs == rhs


class TestAdamsOnGenerator:
    def test_degree_one(self):
        for m in range(CTX3.nu):
            assert adams_on_generator(CTX3, 1, m) == ring_generator(CTX3, m)

    def test_degree_two_level_zero(self):
        ctx = RingContext(5, 1)
        got = adams_on_generator(ctx, 2, 0)
        assert got == basis_element(ctx, 3) - basis_element(ctx, 1)

    def test_small_degrees_spread_form(self):
        # for 1 <= i < p the value is V_{ip^m+1} - V_{ip^m-1}
        for ctx in (CTX3, CTX7):
            for m in range(ctx.nu):
                pm = ctx.p**m
                for i in range(1, ctx.p):
                    want = GreenElement.from_terms(ctx, [(i * pm + 1, 1), (i * pm - 1, -1)])
                    assert adams_on_generator(ctx, i, m) == want

    def test_agrees_with_general_operation(self):
        for n in (1, 2, 4, 5, 8):
            if n % 3 == 0:
                continue
            for m in range(CTX3.nu):
                assert adams_on_generator(CTX3, n, m) == adams(
                    CTX3, n, ring_generator(CTX3, m)
                )

    def test_high_exponent_from_cold_caches(self):
        # the Dickson polynomial of index n was built by n nested calls: a
        # cold dickson_first(1501) raised RecursionError
        dickson_first.cache_clear()
        clear_cache(CTX3)
        for m in range(CTX3.nu):
            assert adams_on_generator(CTX3, 1501, m) == adams(CTX3, 1501, ring_generator(CTX3, m))

    def test_defined_for_p_divisible_degrees(self):
        got = adams_on_generator(CTX3, 3, 0)
        assert dim(got) == 2  # dimension preserved even where the folded map is undefined

    @pytest.mark.parametrize("n", [True, 2.5, "3"])
    def test_rejects_non_integer_exponent(self, n):
        # True was read as 1, and 2.5 reached the Dickson recursion
        with pytest.raises(IndexRangeError, match="is not an integer"):
            adams_on_generator(CTX7, n, 0)

    def test_spread_ladder(self):
        # evaluating the degree-i value against V_r spreads it by i*p^m
        for ctx in (CTX3, CTX7):
            for m in range(ctx.nu):
                pm = ctx.p**m
                for i in range(1, ctx.p):
                    gi = adams_on_generator(ctx, i, m)
                    for r in range(1, pm + 1):
                        got = multiply(gi, basis_element(ctx, r))
                        want = spread(ctx, m, i, basis_element(ctx, r))
                        assert got == want, (ctx.p, m, i, r)


class TestCache:
    def test_transparent(self):
        clear_cache(CTX7)
        first = adams_basis(CTX7, 4, 23)
        again = adams_basis(CTX7, 4, 23)
        assert first == again
        clear_cache(CTX7)
        assert adams_basis(CTX7, 4, 23) == first

    def test_clear_all(self):
        adams_basis(CTX3, 2, 9)
        clear_cache()
        assert adams_basis(CTX3, 2, 9) == basis_element(CTX3, 9)

    def test_basis_module_gets_memoized_value(self):
        value = adams_basis(CTX7, 4, 23)
        assert adams(CTX7, 4, basis_element(CTX7, 23)) is value
        assert adams(CTX7, 4, 2 * basis_element(CTX7, 23)) == 2 * value
        assert adams(CTX7, 4, -basis_element(CTX7, 23)) == -value

    def test_float_exponent_never_memoized(self):
        # adams_basis(ctx, 2.0, 12) memoized V21.0 - V17.0 + ... under the key
        # of n = 2, so a later adams(ctx, 2, V12) printed float indices and
        # to_dict wrote the key "1.0"
        clear_cache(CTX7)
        with pytest.raises(IndexRangeError):
            adams_basis(CTX7, 2.0, 12)
        value = adams(CTX7, 2, basis_element(CTX7, 12))
        assert all(type(r) is int for r, _ in value.terms)
        assert format_element(value) == format_element(adams_basis(CTX7, 2, 12))
        assert "1" in to_dict(value)["coeffs"] and "1.0" not in to_dict(value)["coeffs"]

    @pytest.mark.parametrize("n, s", [(2.0, 12), (True, 12), (2, 12.0), (2, True), ("2", 12)])
    def test_non_integer_arguments_rejected(self, n, s):
        clear_cache(CTX7)
        with pytest.raises(IndexRangeError, match="is not an integer"):
            adams_basis(CTX7, n, s)
        assert not _context_cache(CTX7)

    @pytest.mark.parametrize("n", [2.0, True, 3.5])
    def test_table_rejects_non_integer_exponent(self, n):
        clear_cache(CTX7)
        with pytest.raises(IndexRangeError, match="is not an integer"):
            adams_table(CTX7, n)
        assert not _context_cache(CTX7)

    def test_numpy_integers_memoized_as_ints(self):
        clear_cache(CTX7)
        value = adams_basis(CTX7, np.int64(2), np.int64(12))
        assert value == adams_basis(CTX7, 2, 12)
        assert all(type(n) is int and type(s) is int for n, s in _context_cache(CTX7))
        assert adams_table(CTX7, np.int32(3))[11] == adams_basis(CTX7, 3, 12)


class TestShapeCheck:
    def test_worked_example_passes(self):
        verdict = shape_check(CTX7, 4, 23)
        assert verdict.ok and verdict.violated is None
        assert len(verdict.element.support()) == 17

    def test_identity_passes(self):
        for s in (1, 4, 9):
            assert shape_check(CTX3, 1, s).ok

    def test_sweep_small_contexts(self):
        for ctx in (RingContext(2, 3), CTX3, RingContext(5, 1)):
            for n in range(1, 2 * ctx.p + 1):
                if n % ctx.p == 0:
                    continue
                for s in range(1, ctx.order + 1):
                    assert shape_check(ctx, n, s).ok, (ctx.p, n, s)

    def test_parity_clause_even_exponent(self):
        for s in range(1, CTX7.order + 1):
            value = adams_basis(CTX7, 4, s)
            assert all(r % 2 == 1 for r in value.support())

    def test_parity_clause_odd_exponent(self):
        for s in range(1, CTX7.order + 1):
            value = adams_basis(CTX7, 5, s)
            assert all(r % 2 == s % 2 for r in value.support())

    @pytest.mark.parametrize(
        "literal, ok",
        [("V5-V3+V1", True), ("V9", True), ("0", True), ("-V5+V3", False),
         ("V5+V3", False), ("V5-V3-V1", False)],
    )
    def test_signs_alternate(self, literal, ok):
        assert signs_alternate(parse_element(CTX3, literal)) is ok

    def test_clause_enum_order(self):
        assert [c.value for c in ShapeClause] == [
            "coefficients",
            "alternation",
            "index_bound",
            "parity",
        ]


def reference_shape_clause(ctx, n, s, terms):
    """The first clause of the structural law that the value with these terms breaks, or None.

    terms are the (index, multiplicity) pairs of the n-th operation on V_s,
    ascending.  Clauses, in order: all multiplicities lie in {-1, 0, 1}; the
    nonzero multiplicities alternate in sign in descending index order
    starting with +1; the largest index is at most p^level(s); indices are
    all odd when n is even, and all of the parity of s when n is odd.
    """
    if any(abs(c) > 1 for _, c in terms):
        return ShapeClause.COEFFICIENTS
    signs = [c for _, c in reversed(terms)]
    if signs and (signs[0] != 1 or any(a == b for a, b in zip(signs, signs[1:]))):
        return ShapeClause.ALTERNATION
    if terms and terms[-1][0] > ctx.p ** ctx.level(s):
        return ShapeClause.INDEX_BOUND
    want = 1 if n % 2 == 0 else s % 2
    if any(r % 2 != want for r, _ in terms):
        return ShapeClause.PARITY
    return None


@pytest.mark.parametrize("draw", [0, 1])
@pytest.mark.parametrize("p, nu", [(31, 2), (2, 10), (3, 6), (7, 3)])
def test_shape_clauses_match_a_per_value_reference(p, nu, draw, monkeypatch):
    # a sampled fold class, clean and then with three planted faults of each
    # kind in rows of their own: a flipped sign, a doubled multiplicity and
    # an index moved by one, which keeps the row ascending as neighbouring
    # indices of one parity differ by 2 or more; and in one more row below
    # the top level the leading index moved past its bound.  Every row's
    # verdict must be the reference's, and every planted row must fail
    ctx, q = RingContext(p, nu), p**nu
    rng = random.Random(4409 + 100 * draw + p)
    f = rng.randrange(1, p)
    n = rng.choice((f, 2 * p - f))
    table = _table(ctx, f)

    def reference(rows):
        starts, cols, coefs = (a.tolist() for a in rows)
        return [reference_shape_clause(ctx, n, s, list(zip(cols[a:b], coefs[a:b])))
                for s, (a, b) in enumerate(zip(starts, starts[1:]), 1)]

    assert _shape_clauses(ctx, n, table, 1) == reference(table) == [None] * q
    cols, coefs = table.cols.copy(), table.coefs.copy()
    planted = rng.sample(range(1, q + 1), 9)
    for k, s in enumerate(planted):
        i = rng.randrange(table.starts[s - 1], table.starts[s])
        if k < 3:
            coefs[i] = -coefs[i]
        elif k < 6:
            coefs[i] *= 2
        else:
            cols[i] += 1 if cols[i] < q else -1
    s = rng.choice([s for s in range(1, q // p + 1) if s not in planted])
    cols[table.starts[s] - 1] = p ** ctx.level(s) + 1
    planted.append(s)
    faulty = _Rows(table.starts, cols, coefs)
    got = _shape_clauses(ctx, n, faulty, 1)
    assert got == reference(faulty)
    assert {got[s - 1] for s in planted} == set(ShapeClause)
    # one row at a time through shape_check, which reads the value from adams_basis
    for s in planted:
        a, b = table.starts[s - 1], table.starts[s]
        value = GreenElement.from_terms(ctx, list(zip(cols[a:b].tolist(), coefs[a:b].tolist())))
        monkeypatch.setattr(adams_module, "adams_basis", lambda *_: value)
        assert shape_check(ctx, n, s) == ShapeVerdict(False, got[s - 1], value)


class TestZeroAndLinearity:
    def test_adams_of_zero(self):
        assert adams(CTX3, 2, zero(CTX3)).is_zero()

    @pytest.mark.parametrize("n, error", [
        (7, DivisibilityError), (0, DivisibilityError),
        (2.5, IndexRangeError), (True, IndexRangeError),
    ])
    def test_zero_element_checks_exponent(self, n, error):
        # the exponent is checked before the terms are read, so the zero
        # element has no exemption
        with pytest.raises(error):
            adams(CTX7, n, zero(CTX7))

    def test_linear_combination(self):
        w = 2 * basis_element(CTX3, 5) - basis_element(CTX3, 3)
        got = adams(CTX3, 2, w)
        want = 2 * adams_basis(CTX3, 2, 5) - adams_basis(CTX3, 2, 3)
        assert got == want
