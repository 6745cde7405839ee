import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from greenring import (
    ContextError,
    ContextMismatchError,
    GreenElement,
    GreenRingError,
    IndexRangeError,
    ParseError,
    RingContext,
    SettingError,
    SupportError,
    adams,
    basis_element,
    congruent_mod_regular,
    dim,
    format_element,
    from_dict,
    heller,
    multiply,
    parse_element,
    ring_generator,
    scale,
    spread,
    to_dict,
    zero,
)


def elements(ctx, lo=-4, hi=4):
    return st.lists(
        st.integers(lo, hi), min_size=ctx.order, max_size=ctx.order
    ).map(lambda cs: GreenElement(ctx, cs))


CTX = RingContext(3, 2)


class TestRingContext:
    def test_order_cached(self):
        assert RingContext(3, 2).order == 9
        assert RingContext(2, 4).order == 16

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            RingContext(6, 1)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            RingContext(3, 0)

    def test_order_cap_env(self, monkeypatch):
        monkeypatch.setenv("GREENRING_ORDER_CAP", "8")
        with pytest.raises(ValueError):
            RingContext(3, 2)
        assert RingContext(2, 3).order == 8

    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "8.0", " 8"])
    def test_order_cap_env_rejects_non_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("GREENRING_ORDER_CAP", raw)
        with pytest.raises(SettingError):
            RingContext(2, 3)

    def test_default_cap(self):
        with pytest.raises(ValueError):
            RingContext(2, 11)  # 2048 > 1024

    def test_huge_nu_rejected_by_cap(self):
        # the order is never formed: 3**(10**7) would take seconds and print
        # as 4.7 million digits
        with pytest.raises(ValueError, match=r"^group order 3\^10000000 exceeds cap 1024$"):
            RingContext(3, 10**7)

    @pytest.mark.parametrize("p, nu", [(4, 1), (3, 0), (2, 11)])
    def test_bad_context_is_a_library_error(self, p, nu):
        # a bare ValueError, which the CLI had to re-wrap to exit 2
        with pytest.raises(ContextError) as exc:
            RingContext(p, nu)
        assert isinstance(exc.value, GreenRingError) and isinstance(exc.value, ValueError)

    def test_large_prime_refused_at_once(self):
        # trial division up to sqrt(2**61 - 1) ran before the cap was tested
        code = "from greenring import RingContext\nRingContext(2**61 - 1, 1)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 1
        assert proc.stderr.endswith(
            "ContextError: group order 2305843009213693951^1 exceeds cap 1024\n"
        )

    def test_level(self):
        ctx = RingContext(3, 3)
        assert [ctx.level(s) for s in (1, 2, 3, 4, 9, 10, 27)] == [0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("s", [2.5, 4.0, True, "4"])
    def test_level_rejects_non_integer(self, s):
        # RingContext(3, 3).level(2.5) was 1
        with pytest.raises(IndexRangeError, match="is not an integer"):
            RingContext(3, 3).level(s)
        assert RingContext(3, 3).level(np.int64(4)) == 2

    # p and nu are integers or rejected, never coerced: RingContext(3.0, 2)
    # had order 9.0, RingContext(7, 2.0) raised a bare TypeError and
    # RingContext(3, True) was the ring of order 3
    @pytest.mark.parametrize("p, nu", [(3.0, 2), (7, 2.0), (3, True), (True, 1), ("3", 2)])
    def test_rejects_non_integer_p_or_nu(self, p, nu):
        with pytest.raises(ValueError, match="is not an integer"):
            RingContext(p, nu)

    def test_numpy_integers_accepted_as_ints(self):
        ctx = RingContext(np.int64(3), np.int32(2))
        assert ctx == RingContext(3, 2)
        assert type(ctx.p) is int and type(ctx.nu) is int and type(ctx.order) is int


class TestBasisElement:
    def test_positive_index(self):
        e = basis_element(CTX, 5)
        assert e.coeff(5) == 1 and e.support() == (5,)

    def test_zero_index_gives_zero(self):
        assert basis_element(CTX, 0).is_zero()

    def test_negative_index_negates(self):
        e = basis_element(CTX, -4)
        assert e.coeff(4) == -1 and e.support() == (4,)

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            basis_element(CTX, 10)
        with pytest.raises(IndexRangeError):
            basis_element(CTX, -10)

    @pytest.mark.parametrize("r", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_index(self, r):
        # basis_element(ctx, 2.5) was V2
        with pytest.raises(IndexRangeError):
            basis_element(CTX, r)

    def test_numpy_index_accepted(self):
        e = basis_element(CTX, np.int64(2))
        assert e == basis_element(CTX, 2) and type(e.terms[0][0]) is int

    @pytest.mark.parametrize("terms", [{3: 1.7}, {3.0: 1}, {True: 1}, [(3, False)], {2.5: 1}])
    def test_from_terms_rejects_non_integers(self, terms):
        # from_terms({3: 1.7}) was V3
        with pytest.raises(ValueError, match="is not an integer"):
            GreenElement.from_terms(CTX, terms)

    def test_from_terms_accepts_numpy_integers(self):
        e = GreenElement.from_terms(CTX, {np.int64(3): np.int32(2)})
        assert e == 2 * basis_element(CTX, 3)
        assert e.terms == ((3, 2),) and all(type(v) is int for v in e.terms[0])

    @pytest.mark.parametrize("bad", [1.5, True, 1.0, None])
    def test_dense_constructor_rejects_non_integers(self, bad):
        # GreenElement(ctx, [1.5, 0, ...]) was V1
        with pytest.raises(ValueError, match="is not an integer"):
            GreenElement(CTX, [bad] + [0] * (CTX.order - 1))

    @pytest.mark.parametrize("build", [
        lambda: GreenElement.from_terms(CTX, {1: 1.5}),
        lambda: GreenElement(CTX, [1.5] + [0] * (CTX.order - 1)),
        lambda: GreenElement(CTX, [1]),
    ], ids=["float-term", "float-coefficient", "too-few-coefficients"])
    def test_bad_multiplicities_are_library_errors(self, build):
        # a non-integer multiplicity and a wrong number of coefficients
        # raised a bare ValueError
        with pytest.raises(ParseError) as exc:
            build()
        assert isinstance(exc.value, GreenRingError) and isinstance(exc.value, ValueError)

    def test_dense_constructor_accepts_numpy_integers(self):
        coeffs = np.zeros(CTX.order, dtype=np.int64)
        coeffs[0] = 2
        assert GreenElement(CTX, coeffs) == 2 * basis_element(CTX, 1)


class TestArithmetic:
    def test_add(self):
        v2 = basis_element(CTX, 2)
        assert (v2 + v2).coeff(2) == 2

    def test_cancellation(self):
        v3 = basis_element(CTX, 3)
        assert (v3 + (-v3)).is_zero()

    def test_scale(self):
        e = scale(-2, basis_element(CTX, 1))
        assert e.coeff(1) == -2

    @pytest.mark.parametrize("k", [True, False, np.bool_(True), 2.0, 1.5])
    def test_scalar_multiple_rejects_bool_and_float(self, k):
        # basis_element(ctx, 3) * True was V3
        v3 = basis_element(CTX, 3)
        for call in (lambda: v3 * k, lambda: k * v3, lambda: scale(k, v3)):
            with pytest.raises(TypeError):
                call()

    def test_scalar_multiple_accepts_numpy_integers(self):
        v3 = basis_element(CTX, 3)
        for e in (v3 * np.int64(2), np.int32(2) * v3, scale(np.int64(2), v3)):
            assert e == 2 * v3 and type(e.terms[0][1]) is int

    def test_context_mismatch(self):
        other = RingContext(5, 1)
        with pytest.raises(ContextMismatchError):
            basis_element(CTX, 1) + basis_element(other, 1)

    @given(elements(CTX), elements(CTX), elements(CTX))
    def test_abelian_group_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero(CTX) == a
        assert (a + (-a)).is_zero()

    @given(elements(CTX), elements(CTX))
    def test_dim_additive(self, a, b):
        assert dim(a + b) == dim(a) + dim(b)


class TestSparseStorage:
    @given(
        st.sampled_from([RingContext(3, 2), RingContext(2, 4), RingContext(7, 1)]).flatmap(
            lambda ctx: st.tuples(
                st.just(ctx),
                st.dictionaries(st.integers(1, ctx.order), st.integers(-4, 4), max_size=6),
            )
        )
    )
    def test_dense_and_sparse_constructors_agree(self, ctx_terms):
        ctx, terms = ctx_terms
        dense = [0] * ctx.order
        for r, c in terms.items():
            dense[r - 1] = c
        a = GreenElement(ctx, dense)
        b = GreenElement.from_terms(ctx, terms)
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == b.coeffs == tuple(dense)
        assert list(a.items()) == list(b.items()) == sorted((r, c) for r, c in terms.items() if c)
        for r in range(1, ctx.order + 1):
            assert a.coeff(r) == b.coeff(r) == dense[r - 1]
        assert GreenElement(ctx, b.coeffs) == b

    def test_unit_terms_shared(self):
        dense = [0] * CTX.order
        dense[4], dense[6] = -1, 2
        a = GreenElement(CTX, dense)
        b = GreenElement.from_terms(CTX, {5: -1, 7: 3}) - basis_element(CTX, 7)
        assert a == b and a.terms == ((5, -1), (7, 2))
        assert a.terms[0] is b.terms[0]

    def test_coeff_range_checked(self):
        with pytest.raises(IndexRangeError):
            basis_element(CTX, 1).coeff(CTX.order + 1)

    @pytest.mark.parametrize("r", [3.0, 2.5, True, "3"])
    def test_coeff_rejects_non_integer(self, r):
        # basis_element(ctx, 3).coeff(3.0) answered for V3
        with pytest.raises(IndexRangeError, match="is not an integer"):
            basis_element(CTX, 3).coeff(r)
        assert basis_element(CTX, 3).coeff(np.int64(3)) == 1


class TestDim:
    def test_basis(self):
        assert dim(basis_element(CTX, 5)) == 5

    def test_zero(self):
        assert dim(zero(CTX)) == 0

    def test_virtual(self):
        assert dim(basis_element(CTX, 4) - basis_element(CTX, 2)) == 2


class TestRingGenerator:
    def test_level_one(self):
        x = ring_generator(CTX, 1)
        assert x == basis_element(CTX, 4) - basis_element(CTX, 2)

    def test_level_zero_is_v2(self):
        assert ring_generator(RingContext(7, 2), 0) == basis_element(RingContext(7, 2), 2)

    def test_p2(self):
        ctx = RingContext(2, 3)
        x = ring_generator(ctx, 2)
        assert x == basis_element(ctx, 5) - basis_element(ctx, 3)

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            ring_generator(CTX, 2)
        with pytest.raises(IndexRangeError):
            ring_generator(CTX, -1)

    @pytest.mark.parametrize("m", [True, 1.0])
    def test_rejects_non_integer_level(self, m):
        # ring_generator(ctx, True) was the level-1 generator V4 - V2
        with pytest.raises(IndexRangeError, match="is not an integer"):
            ring_generator(CTX, m)


class TestHeller:
    def test_basis(self):
        assert heller(2, basis_element(CTX, 2)) == basis_element(CTX, 7)

    @pytest.mark.parametrize("m", [True, 1.0])
    def test_rejects_non_integer_level(self, m):
        # heller(True, V3) was the level-1 translate, 0
        with pytest.raises(IndexRangeError, match="is not an integer"):
            heller(m, basis_element(CTX, 3))
        with pytest.raises(IndexRangeError, match="is not an integer"):
            congruent_mod_regular(m, basis_element(CTX, 3), zero(CTX))

    def test_regular_to_zero(self):
        assert heller(2, basis_element(CTX, 9)).is_zero()

    def test_linear(self):
        w = basis_element(CTX, 1) + basis_element(CTX, 2)
        assert heller(1, w) == basis_element(CTX, 2) + basis_element(CTX, 1)

    def test_support_checked(self):
        with pytest.raises(SupportError):
            heller(1, basis_element(CTX, 4))

    def test_dim_rule(self):
        for m in range(CTX.nu + 1):
            pm = CTX.p**m
            for r in range(1, pm + 1):
                assert dim(heller(m, basis_element(CTX, r))) == pm - r

    @given(st.integers(0, 2), elements(CTX))
    def test_involution_mod_regular(self, m, w):
        pm = CTX.p**m
        w = GreenElement(CTX, [c if r < pm else 0 for r, c in enumerate(w.coeffs)])
        assert congruent_mod_regular(m, heller(m, heller(m, w)), w)


OTHER = RingContext(5, 2)


class TestContextAgreement:
    # one check owns the message; adams said "element belongs to a different
    # context".  heller takes its context from its argument, so it has none
    # to mismatch
    @pytest.mark.parametrize("call", [
        lambda x, y: adams(CTX, 2, y),
        lambda x, y: spread(CTX, 0, 1, y),
        lambda x, y: multiply(x, y),
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: congruent_mod_regular(0, x, y),
    ], ids=["adams", "spread", "multiply", "add", "sub", "congruent"])
    def test_mixed_contexts_rejected(self, call):
        x, y = basis_element(CTX, 1), basis_element(OTHER, 1)
        with pytest.raises(ContextMismatchError, match=(
            r"^mixed contexts RingContext\(p=3, nu=2\) and RingContext\(p=5, nu=2\)$"
        )):
            call(x, y)


class TestCongruence:
    def test_multiple_of_regular(self):
        assert congruent_mod_regular(2, basis_element(CTX, 9), zero(CTX))

    def test_not_congruent(self):
        assert not congruent_mod_regular(1, basis_element(CTX, 2), basis_element(CTX, 1))

    def test_support_checked(self):
        with pytest.raises(SupportError):
            congruent_mod_regular(1, basis_element(CTX, 5), zero(CTX))


class TestSerialization:
    def test_to_dict_shape(self):
        e = basis_element(CTX, 5) - basis_element(CTX, 3)
        assert to_dict(e) == {"p": 3, "nu": 2, "coeffs": {"3": -1, "5": 1}}

    def test_round_trip(self):
        e = 2 * basis_element(CTX, 1) - basis_element(CTX, 7)
        assert from_dict(json.loads(json.dumps(to_dict(e)))) == e

    def test_coeff_keys_ascending(self):
        e = basis_element(CTX, 9) + basis_element(CTX, 1)
        assert list(to_dict(e)["coeffs"]) == ["1", "9"]

    def test_from_dict_rejects_bad_index(self):
        with pytest.raises(IndexRangeError):
            from_dict({"p": 3, "nu": 2, "coeffs": {"10": 1}})

    def test_from_dict_composite_p_is_a_library_error(self):
        with pytest.raises(ContextError, match="^p must be prime, got 4$"):
            from_dict({"p": 4, "nu": 1, "coeffs": {}})

    def test_from_dict_rejects_float_p(self):
        with pytest.raises(ParseError):
            from_dict({"p": 7.9, "nu": 1, "coeffs": {"3": 1}})

    def test_from_dict_rejects_float_coefficient(self):
        with pytest.raises(ParseError):
            from_dict({"p": 3, "nu": 2, "coeffs": {"3": 1.5}})

    @pytest.mark.parametrize("coeff", [True, "2"])
    def test_from_dict_rejects_non_int_coefficient(self, coeff):
        with pytest.raises(ParseError):
            from_dict({"p": 3, "nu": 2, "coeffs": {"3": coeff}})

    def test_from_dict_key_past_digit_limit_is_a_library_error(self):
        # int() refused the key with the interpreter's bare digit-limit ValueError
        with pytest.raises(ParseError, match="^coefficient key of 5000 characters has too many digits$"):
            from_dict({"p": 3, "nu": 2, "coeffs": {"9" * 5000: 1}})

    def test_from_dict_rejects_aliased_keys(self):
        # "03" and "3" name the same index; one term would be lost
        with pytest.raises(ParseError):
            from_dict({"p": 3, "nu": 2, "coeffs": {"03": 1, "3": 2}})


def reference_format(a):
    """format_element as it was written term by term, kept as the reference."""
    parts: list[str] = []
    for r, c in reversed(a.terms):
        mag = "" if abs(c) == 1 else str(abs(c))
        term = f"{mag}V{r}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts) if parts else "0"


CTX31 = RingContext(31, 2)


class TestFormatting:
    @given(st.dictionaries(st.integers(1, CTX31.order), st.integers(-3, 3), max_size=8))
    @example({})
    @example({5: 1, 3: -1, 1: 2})
    @example({961: -1, 10: 3})
    @example({7: -3})
    def test_matches_reference(self, terms):
        e = GreenElement.from_terms(CTX31, terms)
        assert format_element(e) == reference_format(e)

    def test_descending_order(self):
        e = basis_element(CTX, 5) - basis_element(CTX, 3) + 2 * basis_element(CTX, 1)
        assert format_element(e) == "V5 - V3 + 2V1"

    def test_zero(self):
        assert format_element(zero(CTX)) == "0"

    def test_leading_negative(self):
        assert format_element(-basis_element(CTX, 4)) == "-V4"

    def test_parse_compact(self):
        assert parse_element(CTX, "V5-V3+2V1") == parse_element(CTX, "V5 - V3 + 2V1")

    def test_parse_round_trip(self):
        e = -2 * basis_element(CTX, 6) + basis_element(CTX, 2)
        assert parse_element(CTX, format_element(e)) == e

    def test_parse_sums_repeated_indices(self):
        # a literal's terms of one index add up, and a sum of 0 drops out,
        # with its +-1 terms shared like any other element's
        e = parse_element(CTX, "V5 + V5 - V3 + 2V3 - V1 + V1 + 0V2")
        assert e.terms == ((3, 1), (5, 2))
        assert e.terms[0] is basis_element(CTX, 3).terms[0]
        assert parse_element(CTX, "V4 - V4") == zero(CTX)

    @given(elements(CTX))
    def test_parse_inverts_format(self, e):
        assert parse_element(CTX, format_element(e)) == e

    def test_parse_rejects_garbage(self):
        for bad in ("V", "5V", "V5 V3", "V5 + + V3", "x", "V5-"):
            with pytest.raises(ParseError):
                parse_element(CTX, bad)

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
    def test_parse_rejects_blank(self, blank):
        # the grammar's zero is "0"; blank text is not an element
        with pytest.raises(ParseError, match="empty"):
            parse_element(CTX, blank)
        assert parse_element(CTX, " 0 ") == zero(CTX)

    @pytest.mark.parametrize("bad", ["V\u0661", "\u0662V1", "V1+V\u0663", "V\uff15", "V1\u0660"])
    def test_parse_rejects_non_ascii_digits(self, bad):
        # int() reads Arabic-Indic and fullwidth digits; the grammar is ASCII
        with pytest.raises(ParseError):
            parse_element(CTX, bad)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(IndexRangeError):
            parse_element(CTX, "V10")
