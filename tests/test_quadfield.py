from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsums import (
    ALPHA,
    BETA,
    ONE,
    SQRT5,
    ZERO,
    NonInvertibleError,
    QuadNum,
    alpha_pow,
    fib,
    lucas,
)
from fibsums.quadfield import inverse, mul, power

from oracles import naive_fib, naive_lucas

rationals = st.fractions(max_denominator=8, min_value=-6, max_value=6)
quads = st.builds(QuadNum, rationals, rationals)
coords = (
    st.sampled_from((0, 1, -1))
    | st.integers(-(10**25), 10**25)
    | st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
)
pairs = st.tuples(coords, coords)


def four_products(a, b):
    # (u1 + v1 alpha)(u2 + v2 alpha) with alpha^2 = alpha + 1, term by term
    u1, v1 = a
    u2, v2 = b
    return u1 * u2 + v1 * v2, u1 * v2 + u2 * v1 + v1 * v2


class TestThreeProducts:
    @settings(deadline=None, max_examples=200)
    @given(a=pairs, b=pairs)
    def test_mul_is_the_four_product_formula(self, a, b):
        assert mul(a, b) == four_products(a, b)
        assert mul(a, a) == four_products(a, a)

    @settings(deadline=None, max_examples=150)
    @given(a=pairs, n=st.integers(-6, 40))
    def test_power_is_repeated_four_products(self, a, n):
        if n < 0 and a[0] * (a[0] + a[1]) - a[1] ** 2 == 0:
            with pytest.raises(NonInvertibleError):
                power(a, n)
            return
        expected = (1, 0)
        for _ in range(abs(n)):
            expected = four_products(expected, a)
        if n >= 0:
            assert power(a, n) == expected
        else:
            assert four_products(power(a, n), expected) == (1, 0)
            assert power(a, n) == power(inverse(a), -n)

    def test_large_alpha_powers(self):
        for n in (20_001, -20_001, 65_537):
            assert power(ALPHA, n) == (fib(n - 1), fib(n))


class TestRingStructure:
    def test_defining_relations(self):
        assert ALPHA * ALPHA == ALPHA + ONE
        assert ALPHA * BETA == QuadNum(-1, 0)
        assert ALPHA + BETA == ONE
        assert SQRT5 * SQRT5 == QuadNum(5, 0)
        assert SQRT5 == ALPHA - BETA

    @settings(deadline=None, max_examples=80)
    @given(a=quads, b=quads, c=quads)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == ZERO
        assert a * ONE == a

    @settings(deadline=None, max_examples=80)
    @given(a=quads, b=quads)
    def test_conjugation_is_an_automorphism(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a

    def test_conj_spot_values(self):
        assert ALPHA.conj() == BETA
        assert QuadNum(5, 0).conj() == QuadNum(5, 0)
        assert (ALPHA**5).conj() == QuadNum(8, -5)  # beta^5 expanded by hand

    @settings(deadline=None, max_examples=60)
    @given(a=quads)
    def test_inverse(self, a):
        if a == ZERO:
            with pytest.raises(NonInvertibleError):
                a.inv()
        else:
            assert a * a.inv() == ONE

    def test_inverse_spot_values(self):
        assert ALPHA.inv() == QuadNum(-1, 1)
        assert QuadNum(2, 0).inv() == QuadNum(Fraction(1, 2), 0)
        with pytest.raises(NonInvertibleError):
            ZERO.inv()

    def test_inexact_operands_rejected(self):
        # an operand pair with a float coordinate raises the constructor's TypeError
        a, half = QuadNum(1, 1), (0.5, 0)
        for op in (lambda: QuadNum(*half), lambda: a + half, lambda: half + a, lambda: a - half, lambda: a * half):
            with pytest.raises(TypeError):
                op()
        assert a + (Fraction(1, 2), 0) == QuadNum(Fraction(3, 2), 1)

    def test_pow_zero_is_one_even_for_zero(self):
        assert ZERO**0 == ONE
        assert ALPHA**0 == ONE

    def test_negative_pow(self):
        assert ALPHA**-1 == QuadNum(-1, 1)
        assert (ALPHA**-7) * (ALPHA**7) == ONE
        with pytest.raises(NonInvertibleError):
            ZERO**-1


class TestAlphaPowers:
    @pytest.mark.parametrize("n,expected", [(5, (3, 5)), (0, (1, 0)), (-1, (-1, 1))])
    def test_spot_values(self, n, expected):
        assert alpha_pow(n) == QuadNum(*expected)

    def test_coordinates_are_fibonacci(self):
        for n in range(-200, 201):
            assert alpha_pow(n) == QuadNum(fib(n - 1), fib(n)), n

    def test_memo_bounded_and_still_exact(self):
        size = alpha_pow.cache_info().maxsize
        alpha_pow.cache_clear()
        try:
            for n in range(-size, size + 1):
                assert alpha_pow(n) == QuadNum(naive_fib(n - 1), naive_fib(n)), n
            assert alpha_pow.cache_info().currsize <= size
            for n in range(-size, size + 1, 7):
                assert alpha_pow(n) == QuadNum(naive_fib(n - 1), naive_fib(n)), n
        finally:
            alpha_pow.cache_clear()

    def test_binet_reconstruction(self):
        for n in range(-200, 201):
            an = alpha_pow(n)
            bn = an.conj()
            diff = an - bn
            ratio = diff * SQRT5.inv()
            assert ratio.is_rational and ratio.u == naive_fib(n)
            total = an + bn
            assert total.is_rational and total.u == naive_lucas(n)

    def test_root5_parts(self):
        # a = p + q*sqrt5 with exact rational (p, q)
        assert ALPHA == Fraction(1, 2) * ONE + Fraction(1, 2) * SQRT5
        assert QuadNum(7, 0) == 7 * ONE + 0 * SQRT5
        assert 2 * alpha_pow(4) == 7 * ONE + 3 * SQRT5  # (L_4, F_4)
        for t in range(-200, 201):
            assert 2 * alpha_pow(t) == lucas(t) * ONE + fib(t) * SQRT5


def in_range(lo, hi):
    return range(lo, hi + 1)


class TestIndexShiftIdentities:
    # L[p+q] - L[p] a^q = -b^p F[q] sqrt5, and companions, as exact ring equations.

    def test_all_four(self):
        for p in in_range(-12, 12):
            for q in in_range(-12, 12):
                ap, bp = alpha_pow(p), alpha_pow(p).conj()
                aq, bq = alpha_pow(q), alpha_pow(q).conj()
                Fq, Lpq, Lp = fib(q), lucas(p + q), lucas(p)
                Fpq, Fp = fib(p + q), fib(p)
                assert QuadNum(Lpq, 0) - Lp * aq == -(bp * Fq) * SQRT5
                assert QuadNum(Lpq, 0) - Lp * bq == (ap * Fq) * SQRT5
                assert QuadNum(Fpq, 0) - Fp * aq == bp * Fq
                assert QuadNum(Fpq, 0) - Fp * bq == ap * Fq


class TestParitySplitIdentities:
    # 1 +/- (-1)^p a^(2q) collapses to a^q times L[q] or F[q] sqrt5 by parity.

    def test_both_signs(self):
        for p in in_range(-12, 12):
            for q in in_range(-12, 12):
                sp = -1 if p % 2 else 1
                aq = alpha_pow(q)
                plus = ONE + sp * alpha_pow(2 * q)
                minus = ONE - sp * alpha_pow(2 * q)
                if (p - q) % 2:  # different parity
                    assert plus == sp * aq * fib(q) * SQRT5
                    assert minus == -sp * aq * lucas(q)
                else:
                    assert plus == sp * aq * lucas(q)
                    assert minus == -sp * aq * fib(q) * SQRT5

    def test_corollaries(self):
        for q in in_range(-12, 12):
            sq = QuadNum(-1 if q % 2 else 1, 0)
            aq, bq = alpha_pow(q), alpha_pow(q).conj()
            assert sq + alpha_pow(2 * q) == aq * lucas(q)
            assert sq - alpha_pow(2 * q) == -(aq * fib(q)) * SQRT5
            assert sq + alpha_pow(2 * q).conj() == bq * lucas(q)
            assert sq - alpha_pow(2 * q).conj() == (bq * fib(q)) * SQRT5
