import pytest

from greenring import IntPolynomial, dickson_first, dickson_second


def poly(*coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)

    def test_degree(self):
        assert poly().degree == -1
        assert poly(7).degree == 0
        assert poly(0, 0, 3).degree == 2

    def test_arithmetic(self):
        assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)
        assert poly(1, 2) + poly(1) == poly(2, 2)
        assert -poly(1, -1) == poly(-1, 1)
        assert 3 * poly(0, 1) == poly(0, 3)

    def test_int_evaluation(self):
        assert poly(-2, 0, 1)(5) == 23

    def test_immutable(self):
        q = poly(1, 2)
        with pytest.raises(AttributeError):
            q.coeffs = (0,)


class TestDicksonFirst:
    def test_seeds(self):
        assert dickson_first(0) == poly(2)
        assert dickson_first(1) == poly(0, 1)

    def test_degree_two(self):
        assert dickson_first(2) == poly(-2, 0, 1)

    def test_degree_three(self):
        assert dickson_first(3) == poly(0, -3, 0, 1)

    def test_monic_with_matching_degree(self):
        for n in range(1, 20):
            g = dickson_first(n)
            assert g.degree == n and g.coeffs[-1] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dickson_first(-1)


class TestDicksonSecond:
    def test_seeds(self):
        assert dickson_second(-1) == poly()
        assert dickson_second(0) == poly(1)
        assert dickson_second(1) == poly(0, 1)

    def test_degree_two(self):
        assert dickson_second(2) == poly(-1, 0, 1)

    def test_degree_three(self):
        assert dickson_second(3) == poly(0, -2, 0, 1)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            dickson_second(-2)


class TestFamilies:
    def test_second_kind_telescopes_first(self):
        # f_n = g_n + g_{n-2} + ... + (g_1 for odd n, g_2 + 1 for even n)
        for n in range(0, 15):
            acc = IntPolynomial()
            k = n
            while k >= 2:
                acc = acc + dickson_first(k)
                k -= 2
            acc = acc + (dickson_first(1) if n % 2 else IntPolynomial((1,)))
            assert dickson_second(n) == acc

    def test_high_index_from_a_cold_cache(self):
        # both families were built by one nested call per index: a cold
        # index of 1501 raised RecursionError
        for family in (dickson_first, dickson_second):
            family.cache_clear()
            g = family(1501)
            assert g.degree == 1501 and g.coeffs[-1] == 1

    def test_same_recurrence(self):
        t = IntPolynomial((0, 1))
        for n in range(2, 12):
            assert dickson_first(n) == t * dickson_first(n - 1) - dickson_first(n - 2)
            assert dickson_second(n) == t * dickson_second(n - 1) - dickson_second(n - 2)
