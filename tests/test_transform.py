import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from fibsums import (
    ALPHA,
    ONE,
    ZERO,
    BinomialKernel,
    IrrationalResultError,
    Kernel,
    NonInvertibleError,
    QuadNum,
    SequenceKind,
    alpha_pow,
    binomial,
    binomial_rhs,
    direct_sum,
    fib,
    kernel_eval,
    lucas,
    reduce_power,
)
from fibsums import quadfield, sequences, transform
from fibsums.cli import main
from fibsums.quadfield import POWER_MEMO_BITS, mul, power_memo
from fibsums.transform import _binomial_at, _lemma_value, rationalize_root5

from oracles import frac_pow, naive_fib

F, L = SequenceKind.FIB, SequenceKind.LUCAS
wide = st.integers(-50, 50)
weights = st.integers(-9, 9) | st.fractions(min_value=-4, max_value=4, max_denominator=9)

# reduce_power's inputs with a float somewhere, and binomial_rhs's inexact weights: each raises TypeError
INEXACT_INPUTS = [
    (BinomialKernel(2, 1, 1, 1, 0), 1, 1, 1.0, F),  # a float z
    (BinomialKernel(3, 1, 1, 1, 0), 1, 2, -1.0, L),
    (BinomialKernel(2, 1, 1, 2, 2), 1, 1, 1.0, F),  # every power of the float z is even
    (BinomialKernel(2, 1, 1, 1, 0), 1, 1, 0.5, F),
    (BinomialKernel(2, 1, 1, -1, -2), 1, 1, 0.5, F),  # negative powers of a float z
    (BinomialKernel(2, 1.0, 1, 1, 0), 1, 1, 1, F),  # a float weight
    (BinomialKernel(2, 1, 1.0, 1, 0), 2, 3, Fraction(1, 2), L),
    (Kernel(((1, 0),)), 1, 0, 1.0, L),  # a float z, with no power taken
    (Kernel(((1, 2),)), 1, 1, 1.0, F),
    (Kernel(((0.1, 0),)), 1, 0, 0, L),  # z = 0: a float coefficient
    (Kernel(((1, 0),)), 1, 0, 0.0, L),  # z = 0: a float z
    (BinomialKernel(2, 0.5, 1, 1, 0), 1, 2, 0, F),
]
INEXACT_WEIGHTS = [BinomialKernel(3, 1.5, 1, 1, 0), BinomialKernel(3, 1, 2.0, 1, 0), BinomialKernel(2, Decimal("0.5"), 1, 1, 0)]


def _primed_points(j, m, z):
    # the primed form (-1)^(ij) alpha^((m-2i)j) z of the lemma points, with
    # alpha^t = F_{t-1} + F_t alpha built from the naive recurrence
    points = []
    for i in range(m + 1):
        t = (m - 2 * i) * j
        sign = -1 if (i * j) % 2 else 1
        points.append(QuadNum(sign * naive_fib(t - 1) * z, sign * naive_fib(t) * z))
    return points


class TestKernelEval:
    def test_constant_kernel(self):
        h = Kernel(((1, 0),))
        assert kernel_eval(h, ALPHA) == ONE
        assert kernel_eval(h, QuadNum(3, 7)) == ONE

    def test_alpha_plus_alpha_squared(self):
        h = Kernel(((1, 1), (1, 2)))
        assert kernel_eval(h, ALPHA) == QuadNum(1, 2)

    def test_negative_exponent(self):
        h = Kernel(((1, -1),))
        assert kernel_eval(h, ALPHA) == QuadNum(-1, 1)

    def test_zero_point_conventions(self):
        h = Kernel(((3, 0), (5, 2)))
        assert kernel_eval(h, QuadNum(0, 0)) == QuadNum(3, 0)  # 0^0 = 1, 0^2 = 0
        with pytest.raises(NonInvertibleError):
            kernel_eval(Kernel(((1, -2),)), QuadNum(0, 0))

    def test_rational_coefficients(self):
        h = Kernel(((Fraction(1, 2), 1),))
        assert kernel_eval(h, ALPHA) == QuadNum(0, Fraction(1, 2))
        # a float anywhere is refused as QuadNum refuses it, never returned as a float pair
        with pytest.raises(TypeError):
            kernel_eval(BinomialKernel(3, 0.5, 1, 1, 0), ALPHA)  # float weight
        with pytest.raises(TypeError):
            kernel_eval(Kernel(((0.5, 2),)), ALPHA)  # float coefficient
        with pytest.raises(TypeError):
            kernel_eval(Kernel(((1, 2),)), (0.5, 0))  # float point

    def test_binomial_kernel_closed_form_is_its_expansion(self):
        # one evaluator for both kernel types: w^s (x + z w^r)^n equals its term list
        kernels = [
            BinomialKernel(4, 3, -2, 2, -1),
            BinomialKernel(3, Fraction(1, 2), 5, -3, 2),
            BinomialKernel(0, 7, 1, 1, -2),
        ]
        points = [ALPHA, QuadNum(-1, 1), QuadNum(2, -3), QuadNum(Fraction(1, 3), 2), (-1, 0)]
        for bk in kernels:
            for point in points:
                assert kernel_eval(bk, point) == kernel_eval(Kernel(bk.terms), point), (bk, point)
        bk = BinomialKernel(2, 1, 1, 1, 3)
        assert kernel_eval(bk, ZERO) == kernel_eval(Kernel(bk.terms), ZERO) == ZERO
        with pytest.raises(NonInvertibleError):
            kernel_eval(BinomialKernel(2, 1, 1, -1, 0), ZERO)


class TestRationalize:
    def test_even_power(self):
        assert rationalize_root5(QuadNum(10, 0), 2) == 2

    def test_odd_power(self):
        # sqrt5 / sqrt5^1 = 1
        assert rationalize_root5(QuadNum(-1, 2), 1) == 1

    def test_raises_on_irrational(self):
        with pytest.raises(IrrationalResultError):
            rationalize_root5(QuadNum(1, 1), 0)
        with pytest.raises(IrrationalResultError):
            rationalize_root5(QuadNum(1, 0), 1)  # rational/sqrt5 is irrational


def _term_sum(h: Kernel, j: int, m: int, z, fibonacci: bool) -> Fraction:
    seq = fib if fibonacci else lucas
    total = Fraction(0)
    for g, f in h.terms:
        total += Fraction(g) * frac_pow(Fraction(z), f) * frac_pow(Fraction(seq(j * f)), m)
    return total


class TestReduce:
    def test_binomial_kernel_linear(self):
        h = Kernel(BinomialKernel(3, 1, 1, 1, 0).terms)
        assert reduce_power(h, 1, 1, 1, F) == 8  # sum C(3,k) F_k
        assert reduce_power(h, 1, 1, 1, L) == 18  # sum C(3,k) L_k

    def test_single_term_square(self):
        assert reduce_power(Kernel(((1, 4),)), 1, 2, 1, F) == fib(4) ** 2
        assert reduce_power(Kernel(((1, 3),)), 2, 2, 1, L) == lucas(6) ** 2

    def test_m_zero_is_plain_kernel_value(self):
        h = Kernel(((2, 1), (Fraction(1, 3), -2), (5, 0)))
        for z in (1, 2, Fraction(-3, 2)):
            expected = sum(Fraction(g) * frac_pow(Fraction(z), f) for g, f in h.terms)
            assert reduce_power(h, 4, 0, z, F) == expected
            assert reduce_power(h, 4, 0, z, L) == expected

    def test_lucas_constant(self):
        assert reduce_power(Kernel(((1, 0),)), 5, 1, 1, L) == 2  # L_0

    def test_zero_weight_short_circuits(self):
        h = Kernel(((7, 0), (3, 2), (1, -4)))
        # only the exponent-0 terms survive; W_0 is 0 for F (unless m=0), 2 for L
        assert reduce_power(h, 2, 0, 0, F) == 7
        assert reduce_power(h, 2, 3, 0, F) == 0
        assert reduce_power(h, 2, 2, 0, L) == 7 * 4

    def test_zero_weight_takes_either_kernel(self):
        # the z = 0 rule reads `terms`, which a BinomialKernel answers with its expansion
        kernels = [
            BinomialKernel(2, 1, 1, 1, 0),
            BinomialKernel(3, Fraction(2, 3), -5, -1, 1),
            BinomialKernel(4, -2, 3, 2, -4),
        ]
        for bk, j, m in product(kernels, (-2, 1, 3), range(4)):
            assert reduce_power(bk, j, m, 0, F) == reduce_power(Kernel(bk.terms), j, m, 0, F)
            assert reduce_power(bk, j, m, 0, L) == reduce_power(Kernel(bk.terms), j, m, 0, L)
        assert reduce_power(kernels[2], 1, 3, 0, L) == 6 * 4 * 9 * 2**3  # C(4,2) x^2 z^2 L_0^3

    def test_random_kernels_match_term_sums(self):
        rng = random.Random(20260810)
        zs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 3]
        for trial in range(60):
            terms = [
                (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-10, 10))
                for _ in range(rng.randint(1, 6))
            ]
            h = Kernel(tuple(terms))
            j = rng.randint(-3, 3)
            m = rng.randint(0, 3)
            z = rng.choice(zs)
            assert reduce_power(h, j, m, z, F) == _term_sum(h, j, m, z, True), (terms, j, m, z)
            assert reduce_power(h, j, m, z, L) == _term_sum(h, j, m, z, False), (terms, j, m, z)

    @staticmethod
    def _evaluated_points(monkeypatch, j, m, z):
        # the points (c, e), p = c alpha^e, at which reduce_power evaluates its kernel, in order
        seen = []
        real = transform._lemma_value

        def recording(h, c, e):
            seen.append((c, e))
            return real(h, c, e)

        monkeypatch.setattr(transform, "_lemma_value", recording)
        reduce_power(Kernel(((1, 0),)), j, m, z, L)
        monkeypatch.undo()
        return seen

    def test_primed_points_agree(self, monkeypatch):
        # beta^(ij) a^((m-i)j) z and (-1)^(ij) a^((m-2i)j) z are the same points,
        # so the two printed forms of the reduction are identical before
        # rationalization.
        for m in range(5):
            for j in range(-3, 4):
                for z in (1, -2, Fraction(3, 2)):
                    points = [QuadNum(*mul(alpha_pow(e), (c, 0))) for c, e in self._evaluated_points(monkeypatch, j, m, z)]
                    assert points == _primed_points(j, m, z)

    def test_primed_sum_agrees_on_kernel(self, monkeypatch):
        h = Kernel(((1, 3), (2, -1), (Fraction(1, 2), 0)))
        for m in range(5):
            for j in range(-3, 4):
                acc_plain = QuadNum(0, 0)
                acc_primed = QuadNum(0, 0)
                for i, ((c, e), pt_primed) in enumerate(
                    zip(self._evaluated_points(monkeypatch, j, m, 2), _primed_points(j, m, 2))
                ):
                    sign = -1 if i % 2 else 1
                    acc_plain = acc_plain + sign * binomial(m, i) * QuadNum(*_lemma_value(h, c, e))
                    acc_primed = acc_primed + sign * binomial(m, i) * kernel_eval(h, pt_primed)
                assert acc_plain == acc_primed

    @seed(20251020)
    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(0, 20),
        x=weights,
        z=weights,
        r=st.integers(-6, 6),
        s=st.integers(-6, 6),
        c=st.sampled_from((1, -1, Fraction(1, 2), Fraction(-3, 2))),
        e=st.integers(-8, 8),
    )
    @example(n=20, x=1, z=1, r=-6, s=-6, c=-1, e=-8)
    @example(n=7, x=Fraction(-4, 9), z=Fraction(1, 2), r=-1, s=5, c=Fraction(-3, 2), e=3)
    @example(n=0, x=0, z=0, r=-2, s=-3, c=Fraction(1, 2), e=0)
    def test_lemma_value_is_the_kernel_at_the_point(self, n, x, z, r, s, c, e):
        # one evaluator: reading p^r and p^s from alpha powers gives the expansion's value at p = c alpha^e
        bk = BinomialKernel(n, x, z, r, s)
        point = mul(alpha_pow(e), (c, 0))
        expected = kernel_eval(Kernel(bk.terms), point)
        assert _lemma_value(bk, c, e) == expected
        assert kernel_eval(bk, point) == expected

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            reduce_power(Kernel(((1, 0),)), 1, -1, 1, F)

    @pytest.mark.parametrize("kind", ["F", "L", None])
    def test_rejects_a_kind_that_is_not_a_member(self, kind):
        # a kind that is not a member must not fall through to Lucas, at z = 0 either
        for z in (1, 0):
            with pytest.raises(ValueError, match="requires a SequenceKind"):
                reduce_power(Kernel(((1, 3),)), 1, 2, z, kind)
        with pytest.raises(ValueError, match="requires a SequenceKind"):
            binomial_rhs(BinomialKernel(3, 1, 1, 1, 1), 1, 2, kind)

    @pytest.mark.parametrize("h, j, m, z, kind", INEXACT_INPUTS)
    def test_rejects_inexact_inputs(self, h, j, m, z, kind):
        # an exact engine: a float anywhere is refused, as QuadNum refuses it, never returned as a float
        with pytest.raises(TypeError, match="int or Fraction"):
            reduce_power(h, j, m, z, kind)

    @pytest.mark.parametrize("bk", INEXACT_WEIGHTS)
    def test_binomial_rhs_rejects_inexact_weights(self, bk):
        # a float or a Decimal weight has no denominator: a TypeError, as reduce_power raises, not an AttributeError
        with pytest.raises(TypeError, match="int or Fraction"):
            binomial_rhs(bk, 1, 1, F)

    def test_binomial_rhs_is_the_reduction_of_its_kernel(self):
        for bk in (BinomialKernel(5, 2, -3, 2, -1), BinomialKernel(4, Fraction(-1, 2), Fraction(2, 3), -1, 3)):
            for j, m in product((-2, 1, 3), range(4)):
                assert reduce_power(Kernel(bk.terms), j, m, 1, F) == binomial_rhs(bk, j, m, F)
                assert reduce_power(Kernel(bk.terms), j, m, 1, L) == binomial_rhs(bk, j, m, L)


class TestBinomialRhs:
    def test_spot_values(self):
        assert binomial_rhs(BinomialKernel(2, 1, 1, 1, 0), 1, 2, F) == 3
        assert binomial_rhs(BinomialKernel(4, 1, 1, 1, 0), 1, 0, F) == 16
        assert binomial_rhs(BinomialKernel(3, 1, 1, 1, 0), 1, 1, L) == 18

    def test_kernel_requires_nonnegative_n(self):
        with pytest.raises(ValueError):
            BinomialKernel(-1, 1, 1, 1, 0)

    def test_kernels_are_values(self):
        bk = BinomialKernel(n=4, x=1, z=1, r=1, s=0)  # keyword construction, as demo 02 builds it
        h = Kernel(terms=((1, 4),))
        assert repr(bk) == "BinomialKernel(n=4, x=1, z=1, r=1, s=0)"
        assert repr(h) == "Kernel(terms=((1, 4),))"
        for kernel, field in ((bk, "x"), (h, "terms")):
            with pytest.raises(AttributeError):
                setattr(kernel, field, 2)
        assert bk == BinomialKernel(4, 1, 1, 1, 0) and hash(bk) == hash(BinomialKernel(4, 1, 1, 1, 0))
        assert h == Kernel(((1, 4),)) and hash(h) == hash(Kernel(((1, 4),)))
        assert bk != BinomialKernel(4, 1, 1, 1, 1)
        for kernel in (bk, h, BinomialKernel(3, Fraction(-3, 2), Fraction(1, 4), -2, 3)):
            copy = pickle.loads(pickle.dumps(kernel))
            assert copy == kernel and type(copy) is type(kernel)

    def test_expand(self):
        # coefficients C(n,k) x^(n-k) z^k at exponents rk+s: 3^2, 2*3*9, 9^2
        bk = BinomialKernel(2, 3, 9, 2, -1)
        assert bk.terms == ((9, -1), (54, 1), (81, 3))

    def test_zero_base_power(self):
        # x + z = 0 makes one evaluation base the zero element; 0^0 = 1 at n=0
        assert binomial_rhs(BinomialKernel(0, -1, 1, 1, 0), 1, 1, F) == fib(0)
        assert binomial_rhs(BinomialKernel(3, -1, 1, 1, 0), 1, 1, L) == direct_sum(
            3, -1, 1, 1, 1, 0, 1, L
        )

    def test_matches_oracle_small_grid(self):
        xs = (-2, 1, Fraction(1, 2))
        for n, m, j, r, s in product(range(5), range(3), (-2, 1, 3), (-1, 1, 2), (-2, 0, 1)):
            for x, z in product(xs, xs):
                bk = BinomialKernel(n, x, z, r, s)
                for kind in (F, L):
                    assert binomial_rhs(bk, j, m, kind) == direct_sum(
                        n, x, z, j, r, s, m, kind
                    ), (n, x, z, j, r, s, m, kind)

    @seed(20105097)
    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(0, 200),
        x=weights,
        z=weights,
        j=wide,
        r=wide,
        s=wide,
        m=st.integers(0, 6),
        kind=st.sampled_from((F, L)),
    )
    @example(n=5, x=0, z=3, j=2, r=-3, s=1, m=3, kind=F)
    @example(n=6, x=2, z=0, j=3, r=4, s=-2, m=2, kind=L)
    @example(n=0, x=Fraction(1, 3), z=5, j=7, r=1, s=-9, m=4, kind=F)
    @example(n=37, x=-2, z=Fraction(3, 4), j=5, r=2, s=3, m=0, kind=L)
    @example(n=20, x=3, z=-1, j=0, r=11, s=6, m=5, kind=F)
    @example(n=15, x=1, z=1, j=9, r=0, s=-4, m=6, kind=L)
    @example(n=120, x=1, z=-2, j=-17, r=-23, s=-41, m=3, kind=F)
    @example(n=150, x=Fraction(5, 6), z=Fraction(-7, 4), j=13, r=-8, s=29, m=2, kind=L)  # d^n = 12^150
    def test_matches_oracle_beyond_the_box(self, n, x, z, j, r, s, m, kind):
        assert binomial_rhs(BinomialKernel(n, x, z, r, s), j, m, kind) == direct_sum(n, x, z, j, r, s, m, kind)


class TestIrrationalResultStaysLive:
    """A wrong lemma contribution leaves an alpha-part, which must raise, never pass as a value."""

    @staticmethod
    def perturb(monkeypatch, point):
        # alpha added to the value at one lemma point (c, e), p = c alpha^e, and no other
        real = transform._lemma_value

        def perturbed(h, c, e):
            value = real(h, c, e)
            return QuadNum(*value) + ALPHA if (c, e) == point else value

        monkeypatch.setattr(transform, "_lemma_value", perturbed)

    @pytest.fixture()
    def perturbed(self, monkeypatch):
        # at j = 1, m = 1 the point alpha is lemma point i = 0 alone
        self.perturb(monkeypatch, (1, 1))

    def test_binomial_rhs_raises(self, perturbed):
        for kind in (F, L):
            with pytest.raises(IrrationalResultError):
                binomial_rhs(BinomialKernel(3, 1, 1, 1, 0), 1, 1, kind)

    def test_verify_reports_a_failed_check(self, perturbed, capsys):
        code = main(["verify", "--ids", "F1", "--n", "0..1", "--j", "1", "--r", "1", "--s", "0", "--jobs", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[1] == (
            "FAIL F1 params={'n': 0, 'j': 1, 'r': 1, 's': 0} "
            "error=IrrationalResultError: non-rational after sqrt5 rationalization: 2 + 1*alpha"
        )
        assert lines[-1] == "FAIL (2 mismatches of 2 checks)"

    @pytest.mark.parametrize("kind", (F, L))
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_each_point_is_checked_on_its_own(self, monkeypatch, m, kind):
        # A point whose value were derived from another's (h(p_(m-i)) = conj h(p_i)) would carry
        # the perturbation to its conjugate, cancel it, and let a wrong sum through.
        bk = BinomialKernel(3, 2, -1, 2, -1)
        for j in (1, 3):
            assert binomial_rhs(bk, j, m, kind) == direct_sum(3, 2, -1, j, 2, -1, m, kind)
            for i in range(m + 1):
                self.perturb(monkeypatch, (-1 if i * j % 2 else 1, (m - 2 * i) * j))
                with pytest.raises(IrrationalResultError):
                    binomial_rhs(bk, j, m, kind)
                monkeypatch.undo()


class TestAlphaPowers:
    def test_huge_powers_add_no_memo_entries(self):
        # F1 at 300 distinct s from 200,000: the points' s-th powers are the Fibonacci pairs that fib(s)
        # and fib(s+1) have memoized, so the closed side adds no entry and no miss to that bounded memo,
        # and leaves the public memo alpha_pow empty
        pairs = sequences._fib_pair
        sequences.clear_caches()
        alpha_pow.cache_clear()
        try:
            for s in range(200_000, 200_300):
                expected = fib(s) + fib(s + 1)
                before = pairs.cache_info()
                assert binomial_rhs(BinomialKernel(1, 1, 1, 1, s), 1, 1, F) == expected
                after = pairs.cache_info()
                assert (after.misses, after.currsize) == (before.misses, before.currsize), s
            assert after.currsize <= after.maxsize
            assert alpha_pow.cache_info().currsize == 0
        finally:
            sequences.clear_caches()


def _exact(q):
    # a float's or a Decimal's exact twin: the int it equals, else its Fraction
    if isinstance(q, (float, Decimal)):
        q = Fraction(q)
        return q.numerator if q.denominator == 1 else q
    return q


def _exact_kernel(h):
    if isinstance(h, BinomialKernel):
        return h._replace(x=_exact(h.x), z=_exact(h.z))
    return Kernel(tuple((_exact(g), f) for g, f in h.terms))


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class TestPowerMemo:
    """`quadfield.power_memo`, in front of the engine's (x + z p^r)^n, keeps only short int bases."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        quadfield.clear_caches()
        yield
        quadfield.clear_caches()

    @staticmethod
    def kept(n, u, v):
        # whether the engine's power of the base (u, v) read the memo: x = 0, z = 1, p^r = (u, v) and p^s = 1
        before = power_memo.cache_info()
        _binomial_at(BinomialKernel._make((n, 0, 1, 1, 0)), (1, 0), (u, v))
        after = power_memo.cache_info()
        return (after.hits, after.misses) != (before.hits, before.misses)

    def test_inexact_inputs_still_raise_under_a_warm_memo(self):
        # 1.0 == 1 and both hash alike, so a memo keyed by value alone would answer a float base with the
        # int power its exact twin left there, and the float would pass unnoticed
        for h, j, m, z, kind in INEXACT_INPUTS:
            for twin_z in {_exact(z), 1, -1}:
                reduce_power(_exact_kernel(h), j, m, twin_z, kind)
        for bk in INEXACT_WEIGHTS:
            binomial_rhs(_exact_kernel(bk), 1, 1, F)
        assert power_memo.cache_info().currsize > 0
        for h, j, m, z, kind in INEXACT_INPUTS:
            with pytest.raises(TypeError, match="int or Fraction"):
                reduce_power(h, j, m, z, kind)
        for bk in INEXACT_WEIGHTS:
            with pytest.raises(TypeError, match="int or Fraction"):
                binomial_rhs(bk, 1, 1, F)

    def test_fraction_weights_keep_their_values_and_types(self):
        # Fraction(2) == 2 as well: a Fraction weight's values and types are the same cold and after int calls
        def values(bk):
            rhs = [binomial_rhs(bk, j, m, kind) for j, m, kind in product((-2, 1, 3), range(3), (F, L))]
            points = [kernel_eval(bk, point) for point in ((1, 1), (-1, 2), (3, -2))]
            return [(value, type(value)) for value in rhs] + [(c, type(c)) for point in points for c in point]

        ints, fracs = BinomialKernel(3, 2, 1, 2, -1), BinomialKernel(3, Fraction(2), Fraction(1), 2, -1)
        cold = values(fracs)
        quadfield.clear_caches()
        warm_ints = values(ints)
        assert power_memo.cache_info().currsize > 0
        assert values(fracs) == cold
        assert [value for value, _ in cold] == [value for value, _ in warm_ints]
        # the engine's sums are ints either way; a Fraction weight's kernel values keep Fraction coordinates
        assert [t for _, t in cold[:18]] == [t for _, t in warm_ints[:18]] == [int] * 18
        assert {t for _, t in cold[18:]} == {Fraction}

    def test_a_huge_n_leaves_the_memo_unchanged(self):
        binomial_rhs(BinomialKernel(12, 1, 1, 1, 0), 1, 1, F)
        before = power_memo.cache_info()
        assert before.currsize > 0
        assert binomial_rhs(BinomialKernel(10**5, 1, 1, 1, 0), 1, 1, F) == fib(2 * 10**5)  # sum C(n,k) F_k = F_2n
        assert power_memo.cache_info() == before

    def test_the_bound_is_on_abs_n(self):
        # (3, 4): bitlen(3 + 4) = 3, and 682 * 3 = 2,046 <= 2,048 < 683 * 3; a negative n inverts the base
        # (norm 5, so Fraction coordinates), and the check reads |n|, not n
        assert POWER_MEMO_BITS == 2048
        assert self.kept(682, 3, 4) and not self.kept(683, 3, 4)
        assert self.kept(-682, 3, 4) and not self.kept(-683, 3, 4)
        assert not self.kept(-(10**5), 1, 1)  # alpha^2 is a unit: int coordinates, but far past the bound
        assert not self.kept(2, Fraction(3), 4) and not self.kept(2, 3.0, 4) and not self.kept(2, 3, 4.0)

    def test_no_kept_coordinate_exceeds_the_bound(self):
        # the largest admitted n for the longest base of each bit length: a power n >= 0 has coordinates of
        # at most about 2,400 bits, and a negative power's numerators and denominators at most 2 * 2,048
        for length in range(1, 17):
            big = (1 << length) - 1
            for u, v in {(0, big), (big, 0), (1, big - 1), (-1, big - 1), (big - 1, -1)}:
                for n, limit in ((POWER_MEMO_BITS // length, 2400), (-(POWER_MEMO_BITS // length), 2 * POWER_MEMO_BITS)):
                    assert self.kept(n, u, v), (n, u, v)
                    assert max(map(_bits, power_memo((u, v), n))) <= limit, (n, u, v)
