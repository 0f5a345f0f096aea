import random

import pytest
from hypothesis import given, strategies as st

from rdnorm import DomainError, PerfectSquareError, QuadInt, is_square

nonsquare_m = st.integers(2, 10**6).filter(lambda m: not is_square(m))
coeff = st.integers(-(10**30), 10**30)


@st.composite
def quadints(draw, m=None):
    if m is None:
        m = draw(nonsquare_m)
    return QuadInt(draw(coeff), draw(coeff), m)


@st.composite
def quadint_pairs(draw):
    m = draw(nonsquare_m)
    return draw(quadints(m=m)), draw(quadints(m=m))


@st.composite
def quadint_triples(draw):
    m = draw(nonsquare_m)
    return tuple(draw(quadints(m=m)) for _ in range(3))


class TestConstruction:
    def test_rejects_perfect_square_radicand(self):
        with pytest.raises(PerfectSquareError):
            QuadInt(1, 1, 9)

    def test_rejects_small_radicand(self):
        with pytest.raises(ValueError):
            QuadInt(1, 1, 1)
        with pytest.raises(ValueError):
            QuadInt(1, 1, -5)

    def test_perfect_square_error_is_value_error(self):
        assert issubclass(PerfectSquareError, ValueError)
        assert issubclass(PerfectSquareError, DomainError)


class TestArithmetic:
    def test_add(self):
        assert QuadInt(1, 2, 10) + QuadInt(3, -1, 10) == QuadInt(4, 1, 10)

    def test_add_identity(self):
        x = QuadInt(7, -3, 13)
        assert x + QuadInt(0, 0, 13) == x
        assert x + 0 == x

    def test_conjugate_sum_is_trace(self):
        for t in (2, 5, 11):
            m = t * t + 1
            assert QuadInt(t, 1, m) + QuadInt(t, -1, m) == QuadInt(2 * t, 0, m)

    def test_mul_expands_delta_squared(self):
        # (12 + sqrt(146))**2 = 290 + 24*sqrt(146) = 2*(145 + 12*sqrt(146))
        d = QuadInt(12, 1, 146)
        assert d * d == QuadInt(290, 24, 146)
        assert d * d == 2 * QuadInt(145, 12, 146)

    def test_mul_unit_norm(self):
        assert QuadInt(3, 1, 10) * QuadInt(3, -1, 10) == QuadInt(-1, 0, 10)

    def test_mul_identity(self):
        x = QuadInt(4, 9, 7)
        assert x * 1 == x
        assert x * QuadInt(1, 0, 7) == x

    def test_mismatched_radicand(self):
        with pytest.raises(ValueError):
            QuadInt(1, 1, 10) + QuadInt(1, 1, 11)
        with pytest.raises(ValueError):
            QuadInt(1, 1, 10) * QuadInt(1, 1, 11)

    def test_pow(self):
        eps = QuadInt(3, 1, 10)
        assert eps**0 == QuadInt(1, 0, 10)
        assert eps**3 == eps * eps * eps

    # units of norm -1 (m = 2, 10, 29) and +1 (m = 3, 7, 146), and a non-unit
    @pytest.mark.parametrize("x", [QuadInt(1, 1, 2), QuadInt(3, 1, 10),
                                   QuadInt(70, 13, 29), QuadInt(2, 1, 3),
                                   QuadInt(8, 3, 7), QuadInt(145, 12, 146),
                                   QuadInt(-4, 9, 7)])
    def test_pow_equals_repeated_multiplication(self, x):
        power = QuadInt(1, 0, x.m)
        for k in range(71):
            assert x**k == power, k
            power = power * x

    def test_pow_matches_square_and_multiply(self):
        def reference(x, k):
            result, base = QuadInt(1, 0, x.m), x
            while k:
                if k & 1:
                    result = result * base
                base = base * base
                k >>= 1
            return result

        rng = random.Random(28)
        for x in (QuadInt(1, 1, 2), QuadInt(8, 3, 7), QuadInt(-5, 2, 13)):
            for k in [rng.randrange(10**4) for _ in range(6)] + [1, 2, 2**13, 2**13 - 1]:
                assert x**k == reference(x, k), (x, k)

    def test_pow_rejects_negative_and_non_integer_exponents(self):
        eps = QuadInt(3, 1, 10)
        with pytest.raises(TypeError):
            eps**-1
        with pytest.raises(TypeError):
            eps**1.5


class TestConjNorm:
    def test_conj(self):
        assert QuadInt(4, 1, 10).conj() == QuadInt(4, -1, 10)

    def test_norm_examples(self):
        assert QuadInt(4, 1, 10).norm() == 6
        for t in range(1, 20):
            assert QuadInt(t, 1, t * t + 1).norm() == -1
        for t in range(2, 20):
            assert QuadInt(t * t - 1, t, t * t - 2).norm() == 1

    @given(quadints())
    def test_norm_is_product_with_conjugate(self, x):
        assert x * x.conj() == QuadInt(x.norm(), 0, x.m)

    @given(quadint_pairs())
    def test_norm_multiplicative(self, pair):
        x, y = pair
        assert (x * y).norm() == x.norm() * y.norm()

    @given(quadint_pairs())
    def test_conj_ring_homomorphism(self, pair):
        x, y = pair
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()

    @given(quadints())
    def test_conj_involution(self, x):
        assert x.conj().conj() == x

    @given(quadints())
    def test_sign_pair_matches_norm_sign(self, x):
        if not x.is_zero():
            nrm = x.norm()
            assert x.sign_real() * x.conj().sign_real() == (nrm > 0) - (nrm < 0)


class TestRealOrder:
    def test_sign_examples(self):
        assert QuadInt(1, -1, 2).sign_real() == -1
        assert QuadInt(0, 0, 5).sign_real() == 0
        assert QuadInt(4, -1, 10).sign_real() == 1

    def test_cmp_examples(self):
        assert (QuadInt(3, 1, 10) - QuadInt(6, 0, 10)).sign_real() > 0
        x = QuadInt(5, -2, 7)
        assert (x - x).sign_real() == 0

    def test_order_operators(self):
        assert QuadInt(3, 1, 10) > 6
        assert QuadInt(1, -1, 2) < 0
        assert QuadInt(2, 0, 7) <= QuadInt(2, 0, 7)

    @given(quadint_triples())
    def test_translation_invariance(self, triple):
        x, y, z = triple
        assert (x - y).sign_real() == ((x + z) - (y + z)).sign_real()

    @given(quadint_pairs())
    def test_cmp_matches_high_precision_interval(self, pair):
        # 256-bit interval evaluation; only decisive when 0 is excluded
        from mpmath import iv

        iv.prec = 256
        x, y = pair
        d = x - y
        val = iv.mpf(d.a) + iv.mpf(d.b) * iv.sqrt(iv.mpf(d.m))
        if 0 < val:
            assert (x - y).sign_real() == 1
        elif val < 0:
            assert (x - y).sign_real() == -1

    @given(quadints())
    def test_abs_is_nonnegative(self, x):
        assert abs(x).sign_real() >= 0
