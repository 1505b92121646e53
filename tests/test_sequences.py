import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibsums import BinomialKernel, SequenceKind, binomial, binomial_rhs, direct_sum, fib, lucas, sequences
from fibsums.cli import main
from fibsums.quadfield import ALPHA, alpha_pow, power

from oracles import naive_binomial, naive_fib, naive_lucas, naive_weighted_sum

F, L = SequenceKind.FIB, SequenceKind.LUCAS


class TestFib:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 0), (1, 1), (10, 55), (-7, 13), (-8, -21), (2, 1), (-1, 1), (-2, -1)],
    )
    def test_spot_values(self, n, expected):
        assert fib(n) == expected

    def test_matches_naive_iteration(self):
        for n in range(-300, 301):
            assert fib(n) == naive_fib(n), n

    @settings(deadline=None, max_examples=5)
    @given(n=st.integers(-(10**6), 10**6))
    @example(n=200_001)
    @example(n=-200_001)
    @example(n=600_000)
    def test_pair_matches_naive_iteration_and_alpha_powers(self, n):
        # (F_{i-1}, F_i) against plain iteration for |i| <= 300, and against the coordinates of
        # alpha^i from binary exponentiation in Q(alpha), an independent algorithm, there and at
        # a huge or negative i = n: the power-reduction engine reads alpha's powers from this pair
        for i in range(-300, 301):
            assert sequences._fib_pair_at(i) == (naive_fib(i - 1), naive_fib(i)) == alpha_pow(i), i
        assert sequences._fib_pair_at(n) == power(ALPHA, n), n

    def test_cassini(self):
        for n in range(-200, 201):
            assert fib(n + 1) * fib(n - 1) - fib(n) ** 2 == (-1 if n % 2 else 1)

    def test_large_index_digit_count(self):
        # F_1000 is a well-known 209-digit number
        assert len(str(fib(1000))) == 209

    def test_memo_bounded_and_still_exact(self):
        size = sequences._fib_pair.cache_info().maxsize
        sequences.clear_caches()
        try:
            # fast doubling of every index up to 2*size touches 2*size distinct entries
            for n in range(2 * size):
                assert fib(n) == naive_fib(n), n
            assert sequences._fib_pair.cache_info().currsize <= size
            for n in range(-2 * size, 2 * size, 37):
                assert fib(n) == naive_fib(n), n
                assert lucas(n) == naive_lucas(n), n
            assert sequences._fib_pair.cache_info().currsize <= size
        finally:
            sequences.clear_caches()

    def test_value_memos_bounded_exact_and_cleared(self):
        memos = (fib, lucas, sequences._fib_pair)
        size = fib.cache_info().maxsize
        assert lucas.cache_info().maxsize == size
        sequences.clear_caches()
        try:
            # 2*size distinct indices each, negative ones included
            for n in range(-size, size):
                assert fib(n) == naive_fib(n), n
                assert lucas(n) == naive_lucas(n), n
            assert fib.cache_info().currsize <= size
            assert lucas.cache_info().currsize <= size
            # evicted and re-computed values are still exact
            for n in range(-size, size, 41):
                assert fib(n) == naive_fib(n), n
                assert lucas(n) == naive_lucas(n), n
            assert all(memo.cache_info().currsize > 0 for memo in memos)
            sequences.clear_caches()
            assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
        finally:
            sequences.clear_caches()


class TestLucas:
    @pytest.mark.parametrize("n,expected", [(0, 2), (1, 1), (6, 18), (-3, -4), (-4, 7)])
    def test_spot_values(self, n, expected):
        assert lucas(n) == expected

    def test_matches_naive_iteration(self):
        for n in range(-300, 301):
            assert lucas(n) == naive_lucas(n), n

    def test_fibonacci_neighbour_sum(self):
        for n in range(-200, 201):
            assert lucas(n) == fib(n - 1) + fib(n + 1)


class TestBinomial:
    @pytest.mark.parametrize("n,k,expected", [(5, 2, 10), (7, 0, 1), (4, 7, 0), (4, -1, 0)])
    def test_spot_values(self, n, k, expected):
        assert binomial(n, k) == expected

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_matches_pascal(self):
        for n in range(15):
            for k in range(-2, n + 3):
                assert binomial(n, k) == naive_binomial(n, k)

    def test_row_sums(self):
        for n in range(65):
            assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


class TestOverPower:
    """`over_power(total, den, n)` is as_exact(Fraction(total, den**n)), type included."""

    @staticmethod
    def check(total, den, n):
        got = sequences.over_power(total, den, n)
        expected = sequences.as_exact(Fraction(total, den**n))
        assert got == expected and type(got) is type(expected), (total, den, n)
        if isinstance(got, Fraction):
            assert got.denominator > 1 and math.gcd(got.numerator, got.denominator) == 1

    @settings(deadline=None, max_examples=300)
    @given(
        t=st.integers(-(10**40), 10**40),
        den=st.sampled_from((1, 2, 4, 12, 18, 72, 1000, 3**7, 2**5 * 7**3)) | st.integers(1, 10**6),
        k=st.integers(0, 40),
        p=st.sampled_from((1, 2, 3, 5, 7)),
        b=st.integers(0, 60),
        n=st.integers(0, 30),
    )
    @example(t=0, den=12, k=0, p=1, b=0, n=5)
    @example(t=-7, den=1, k=0, p=2, b=9, n=9)
    @example(t=-1, den=2**5 * 7**3, k=31, p=1, b=0, n=30)
    @example(t=5, den=72, k=3, p=2, b=60, n=12)
    @example(t=-3, den=18, k=0, p=3, b=2 * 30 - 1, n=30)
    # den = 10^200, n = 100, with den^n dividing most or all of the total: the reduction's costliest shapes
    @example(t=3**20_000, den=10**200, k=50, p=1, b=0, n=100)
    @example(t=7, den=10**200, k=100, p=1, b=0, n=100)
    @example(t=-7, den=10**200, k=99, p=2, b=1, n=100)
    def test_matches_fraction(self, t, den, k, p, b, n):
        # total = t den^k p^b: a common factor below, at and past den^n, in some primes of den or all
        self.check(t * den**k * p**b, den, n)
        self.check(t * den**k * p**b + 1, den, n)

    @pytest.mark.parametrize("den,n", [(12, 24), (2**5 * 7**3, 10), (10**20, 6)])
    def test_every_power_of_den_in_the_total(self, den, n):
        # totals den^k t for k in 0..n, with t coprime to den or holding some of den's primes unevenly
        for k in range(n + 1):
            for t in (1, -7, 2**45 * 3, -(3**30) * 7**11 + 2, 7**80 + 10):
                self.check(den**k * t, den, n)

    def test_sum_of_huge_rational_weights(self):
        # the rational path of direct_sum and binomial_rhs: n = 60, x = 10^-500
        x = Fraction(1, 10**500)
        expected = sequences.as_exact(Fraction(sequences._integer_sum(60, 1, 10**500, 1, 1, 0, 1, fib), 10**30000))
        assert direct_sum(60, x, 1, 1, 1, 0, 1, SequenceKind.FIB) == expected
        assert binomial_rhs(BinomialKernel(60, x, 1, 1, 0), 1, 1, SequenceKind.FIB) == expected


class TestDirectSum:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((3, 1, 1, 1, 1, 0, 1, L), 18),  # L_0 + 3L_1 + 3L_2 + L_3
            ((2, 1, 1, 1, 1, 1, 3, F), 11),  # F_1^3 + 2F_2^3 + F_3^3
            ((2, 1, -1, 1, 2, 0, 2, F), 7),  # F_0^2 - 2F_2^2 + F_4^2
            ((5, 1, 1, 1, 1, 0, 0, F), 32),  # sum C(5,k) = 2^5
        ],
    )
    def test_spot_values(self, args, expected):
        assert direct_sum(*args) == expected

    def test_rejects_negative_n_or_m(self):
        with pytest.raises(ValueError):
            direct_sum(-1, 1, 1, 1, 1, 0, 1, F)
        with pytest.raises(ValueError):
            direct_sum(2, 1, 1, 1, 1, 0, -1, F)

    @pytest.mark.parametrize("x, z", [(1.5, 1), (1, 2.0), (Decimal("1.5"), 1), (1, Decimal(2)), (0.0, 1)])
    def test_rejects_inexact_weights(self, x, z):
        # a float or a Decimal has no denominator: refused as the engine refuses it, not an AttributeError
        with pytest.raises(TypeError, match="int or Fraction"):
            direct_sum(3, x, z, 1, 1, 0, 1, F)

    @pytest.mark.parametrize("kind", ["F", "L", None])
    def test_rejects_a_kind_that_is_not_a_member(self, kind):
        # a kind that is not a member must not fall through to Lucas (125 here, where FIB gives 25)
        with pytest.raises(ValueError, match="requires a SequenceKind"):
            direct_sum(3, 1, 1, 1, 1, 1, 2, kind)

    def test_zero_weight_conventions(self):
        # 0^0 = 1 for the weights: only the k=n (resp. k=0) term survives
        assert direct_sum(3, 0, 1, 1, 1, 0, 1, F) == fib(3)
        assert direct_sum(3, 1, 0, 1, 1, 2, 1, L) == lucas(2)
        # W = 0 with m = 0 contributes 1, not 0
        assert direct_sum(0, 1, 1, 1, 1, 0, 0, F) == 1

    @pytest.mark.parametrize("kind", [F, L])
    @pytest.mark.parametrize("x", [3, -2, Fraction(-3, 2)])
    @pytest.mark.parametrize("n", [16, 33, 200])
    def test_z_zero_is_a_one_term_sum_past_the_rows(self, monkeypatch, n, x, kind):
        # past 16 terms a zero z leaves only the k = 0 term, so no block is walked
        monkeypatch.setattr(sequences, "_expands", lambda *args: pytest.fail("a block was walked"))
        for j, r, s, m in [(2, -1, 1, 2), (1, 3, -2, 1), (-3, 2, 5, 3), (1, 1, 0, 0)]:
            expected = naive_weighted_sum(n, x, 0, j, r, s, m, kind is F)
            assert direct_sum(n, x, 0, j, r, s, m, kind) == expected
            assert direct_sum(n, x, Fraction(0), j, r, s, m, kind) == expected

    @pytest.mark.parametrize("kind", [F, L])
    def test_m_zero_is_binomial_theorem(self, kind):
        for n in (*range(9), 16, 65, 2000):
            for x, z in [(1, 1), (2, -1), (Fraction(1, 2), Fraction(3, 2)), (-2, 3)]:
                assert direct_sum(n, x, z, 3, 2, 1, 0, kind) == Fraction(x + z) ** n

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(0, 100),
        x=st.fractions(max_denominator=6, min_value=-4, max_value=4),
        z=st.fractions(max_denominator=6, min_value=-4, max_value=4),
        j=st.integers(-6, 6),
        r=st.integers(-6, 6),
        s=st.integers(-6, 6),
        m=st.integers(0, 3),
        fibonacci=st.booleans(),
    )
    @example(n=17, x=2, z=-1, j=0, r=5, s=3, m=2, fibonacci=False)  # j*r = 0, j = 0
    @example(n=23, x=Fraction(1, 3), z=1, j=4, r=0, s=-2, m=3, fibonacci=True)  # r = 0
    @example(n=31, x=0, z=Fraction(-5, 2), j=-6, r=3, s=1, m=1, fibonacci=False)  # x = 0
    @example(n=29, x=Fraction(3, 4), z=0, j=5, r=-6, s=-6, m=2, fibonacci=True)  # z = 0
    @example(n=0, x=0, z=0, j=3, r=2, s=0, m=0, fibonacci=True)  # 0^0 everywhere
    @example(n=40, x=Fraction(-3, 2), z=Fraction(1, 4), j=-3, r=-2, s=3, m=2, fibonacci=False)
    # sums of more than 16 terms are split into blocks of 16
    @example(n=15, x=-1, z=3, j=2, r=-1, s=1, m=3, fibonacci=True)  # one full block
    @example(n=16, x=3, z=-2, j=-1, r=2, s=0, m=2, fibonacci=False)  # a block and one term
    @example(n=17, x=Fraction(2, 3), z=-1, j=1, r=3, s=-2, m=1, fibonacci=True)
    @example(n=31, x=-2, z=0, j=3, r=1, s=2, m=2, fibonacci=False)  # z = 0
    @example(n=32, x=1, z=1, j=2, r=2, s=-1, m=0, fibonacci=True)  # m = 0
    @example(n=33, x=-1, z=-1, j=-2, r=-3, s=4, m=3, fibonacci=False)
    @example(n=47, x=Fraction(-5, 4), z=Fraction(1, 6), j=1, r=-2, s=3, m=2, fibonacci=True)
    @example(n=64, x=4, z=-3, j=-3, r=1, s=-4, m=1, fibonacci=False)
    @example(n=100, x=Fraction(1, 2), z=Fraction(-3, 2), j=2, r=-1, s=5, m=3, fibonacci=True)
    def test_matches_naive_summation(self, n, x, z, j, r, s, m, fibonacci):
        # direct_sum steps the index j(rk+s) by jr with the addition formula,
        # and weighs the terms by Horner's rule up to 16 terms and by exact
        # division in the blocks of a longer sum; the naive sum recomputes both.
        kind = F if fibonacci else L
        assert direct_sum(n, x, z, j, r, s, m, kind) == naive_weighted_sum(
            n, x, z, j, r, s, m, fibonacci
        )

    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 47, 64, 100])
    @pytest.mark.parametrize(
        "x,z,j,r,s,m,fibonacci",
        [
            (2, -1, 1, 1, 0, 2, True),
            (3, 0, 2, -1, 1, 2, False),  # z = 0: only the first block's k = 0 term
            (-2, 3, -1, 2, 3, 1, True),  # negative x
            (-1, 1, 1, -1, 2, 3, False),  # x = -1
            (Fraction(-3, 2), Fraction(1, 4), 1, 2, -1, 2, True),  # rational weights
            (2, 5, 3, 1, 0, 0, False),  # m = 0: the binomial theorem
        ],
    )
    def test_block_boundaries_match_naive_summation(self, n, x, z, j, r, s, m, fibonacci):
        # n + 1 terms: one block of 16 at n = 15, a split from n = 16 on, and
        # uneven splits (a short last block, or an odd number of blocks) after
        kind = F if fibonacci else L
        assert direct_sum(n, x, z, j, r, s, m, kind) == naive_weighted_sum(
            n, x, z, j, r, s, m, fibonacci
        )

    @pytest.mark.parametrize("n", range(17))
    @pytest.mark.parametrize(
        "x,z,j,r,s,m,fibonacci",
        [
            (-1, 3, 2, 1, 1, 2, True),  # x = -1
            (0, -2, 1, 2, -1, 3, False),  # x = 0: only the k = n term
            (3, 0, 2, -1, 1, 2, True),  # z = 0: only the k = 0 term
            (2, 5, 3, 1, 0, 0, False),  # m = 0: the binomial theorem
            (-2, 3, 0, 5, 3, 2, True),  # j*r = 0 by j = 0
            (1, -1, 4, 0, -2, 3, False),  # j*r = 0 by r = 0
            (3, -2, -2, 3, 1, 2, True),  # negative step
            (Fraction(-3, 2), Fraction(1, 4), -1, 2, -1, 2, False),  # rational weights
            (Fraction(2, 3), -1, 1, 3, -2, 1, True),  # rational x, int z
            # past the byte bound m (|js| + 15|jr|) <= 3000: every n takes the block loop
            (-1, 3, 1, 300, 1, 2, True),  # x = -1
            (3, 0, 2, -150, 1, 2, False),  # z = 0, negative step
            (Fraction(-3, 2), Fraction(1, 4), -1, 300, -1, 2, True),  # rational weights, negative step
            (Fraction(2, 3), -1, 1, -300, 2, 1, False),  # rational x, negative step, m = 1
        ],
    )
    def test_every_small_size_matches_naive_summation(self, n, x, z, j, r, s, m, fibonacci):
        # n <= 15 within the byte bound is the Horner loop over one binomial row; n = 16 is the first blocked sum
        kind = F if fibonacci else L
        assert direct_sum(n, x, z, j, r, s, m, kind) == naive_weighted_sum(
            n, x, z, j, r, s, m, fibonacci
        )

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(0, 15),
        x=st.one_of(st.integers(-6, 6), st.fractions(max_denominator=9, min_value=-6, max_value=6)),
        z=st.one_of(st.integers(-6, 6), st.fractions(max_denominator=9, min_value=-6, max_value=6)),
        j=st.integers(-60, 60),
        r=st.integers(-60, 60),
        s=st.integers(-60, 60),
        m=st.integers(0, 6),
        fibonacci=st.booleans(),
    )
    def test_small_sums_match_naive_summation(self, n, x, z, j, r, s, m, fibonacci):
        kind = F if fibonacci else L
        assert direct_sum(n, x, z, j, r, s, m, kind) == naive_weighted_sum(
            n, x, z, j, r, s, m, fibonacci
        )

    @pytest.mark.parametrize("n", [0, 7, 15, 16, 200])
    @pytest.mark.parametrize("kind", [F, L])
    @pytest.mark.parametrize("x", [2, 0, Fraction(-3, 2)])
    def test_at_most_four_sequence_calls_per_sum(self, monkeypatch, n, kind, x):
        # the index is stepped from four seed values, never read term by term, and a short
        # sum's row of W^m is memoized (the wrappers key a new row), so repeating it reads none
        calls = []

        def counting(seq):
            def wrapper(k):
                calls.append(k)
                return seq(k)

            return wrapper

        monkeypatch.setattr(sequences, "fib", counting(sequences.fib))
        monkeypatch.setattr(sequences, "lucas", counting(sequences.lucas))
        value = direct_sum(n, x, -1, 3, -2, 1, 2, kind)
        assert 0 < len(calls) <= 4
        calls.clear()
        assert direct_sum(n, x, -1, 3, -2, 1, 2, kind) == value
        assert len(calls) <= 4 and (calls == []) == (n < 16 and x != 0)

    def test_rational_weights_exact(self):
        got = direct_sum(2, Fraction(1, 2), Fraction(1, 3), 1, 1, 0, 1, F)
        # C(2,0)(1/2)^2 F_0 + C(2,1)(1/2)(1/3) F_1 + C(2,2)(1/3)^2 F_2
        assert got == Fraction(1, 3) + Fraction(1, 9)

    @pytest.mark.parametrize(
        "n,x,z,j,r,s,m",
        [
            (250, 3, -2, -2, -3, 5, 2),
            (251, -1, 4, -3, -1, -7, 1),
            (249, Fraction(-3, 2), Fraction(1, 4), -1, -2, 3, 3),
        ],
    )
    @pytest.mark.parametrize("fibonacci", [True, False])
    def test_large_n_negative_steps_match_literal_sum(self, n, x, z, j, r, s, m, fibonacci):
        seq = naive_fib if fibonacci else naive_lucas
        literal = sum(
            math.comb(n, k) * Fraction(x) ** (n - k) * Fraction(z) ** k * seq(j * (r * k + s)) ** m
            for k in range(n + 1)
        )
        assert direct_sum(n, x, z, j, r, s, m, F if fibonacci else L) == literal

    def test_memo_does_not_grow_with_n(self):
        # the sequence is seeded once and then stepped, so lookups do not grow with n
        sequences.clear_caches()
        try:
            direct_sum(5000, 1, 1, 1, 1, 0, 3, F)
            assert sequences._fib_pair.cache_info().currsize <= 64
        finally:
            sequences.clear_caches()

    def test_oracle_imports_only_the_standard_library(self):
        # the oracle must stay independent of quadfield, transform and identities
        tree = ast.parse(Path(sequences.__file__).read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported <= {"__future__", "enum", "fractions", "functools", "math", "operator", "typing"}


class TestPowerRows:
    """A sum of at most 16 terms within the byte bound reads its row of W^m from an LRU memo of 1,024 rows."""

    @pytest.fixture(autouse=True)
    def cold(self):
        sequences.clear_caches()
        yield
        sequences.clear_caches()

    @staticmethod
    def rows():
        return sequences._power_row.cache_info().currsize

    @pytest.mark.parametrize("first", [15, 0])
    @pytest.mark.parametrize("s", [-1, 700])  # a short row, and one past the byte bound from m = 3 on
    @pytest.mark.parametrize("r", [3, -3])
    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("fibonacci", [True, False])
    def test_every_short_sum_matches_naive_cold_and_warm(self, first, s, r, m, fibonacci):
        kind, args = F if fibonacci else L, (3, -2, 2, r, s, m)
        expected = [naive_weighted_sum(n, *args, fibonacci) for n in range(16)]
        for n in range(16):
            sequences.clear_caches()
            assert direct_sum(n, *args, kind) == expected[n], n
        sequences.clear_caches()
        assert direct_sum(first, *args, kind) == expected[first]
        kept = m * (2 * abs(s) + 15 * 6) <= 3000
        assert self.rows() == kept
        for n in [*range(16), *range(15, -1, -1)]:
            assert direct_sum(n, *args, kind) == expected[n], n
        assert self.rows() == kept

    def test_rows_are_kept_exactly_up_to_the_byte_bound(self):
        # m (|a| + 15|d|) <= 3000 keeps a row: here a = 3000 - 15d and a = -3000 + 15d
        for s, r, m, kept in [(3000, 0, 1, 1), (3001, 0, 1, 0), (-2985, 1, 1, 1), (-2986, 1, 1, 0), (1350, 10, 2, 1)]:
            sequences.clear_caches()
            assert direct_sum(4, 1, 1, 1, r, s, m, F) == naive_weighted_sum(4, 1, 1, 1, r, s, m, True)
            assert self.rows() == kept, (s, r, m)

    def test_huge_indices_are_exact_and_not_kept(self):
        s, m = 200000, 3
        f0, f1 = naive_fib(s - 1), naive_fib(s)
        fs = [f0, f1]  # F_{s-1} .. F_{s+4}
        for _ in range(4):
            fs.append(fs[-2] + fs[-1])
        ls = [fs[k] + fs[k + 2] for k in range(4)]  # L_{s+k} = F_{s+k-1} + F_{s+k+1}
        direct_sum(2, 1, 1, 1, 1, 0, 2, F)
        size = self.rows()
        for kind, w in [(F, fs[1:]), (L, ls)]:
            expected = sum(math.comb(3, k) * 2 ** (3 - k) * (-1) ** k * w[k] ** m for k in range(4))
            assert direct_sum(3, 2, -1, 1, 1, s, m, kind) == expected
            assert self.rows() == size == 1

    def test_memo_keeps_the_newest_rows(self):
        for s in range(1100):
            assert direct_sum(3, 1, 1, 1, 1, s, 1, F) == naive_weighted_sum(3, 1, 1, 1, 1, s, 1, True), s
            assert self.rows() <= 1024
        assert self.rows() == 1024
        # the 1,024 rows read last are all still held, so reading them again builds none
        misses = sequences._power_row.cache_info().misses
        for s in range(1100 - 1024, 1100):
            assert direct_sum(3, 1, 1, 1, 1, s, 1, F) == naive_weighted_sum(3, 1, 1, 1, 1, s, 1, True), s
        assert sequences._power_row.cache_info().misses == misses
        sequences.clear_caches()
        assert self.rows() == 0


class TestWeightRows:
    """A short sum with |x|, |z| < 2^128 is a dot product of its memoized weights and row of W^m.

    Longer weights take Horner's rule and never reach the weights memo.
    """

    @pytest.fixture(autouse=True)
    def cold(self):
        sequences.clear_caches()
        yield
        sequences.clear_caches()

    SHORT = sequences._SHORT
    # (x, z, whether the weights are short once scaled to integers)
    WEIGHTS = [
        (3, -2, True),
        (Fraction(3, 2), Fraction(-1, 3), True),  # scaled to (9, -2)
        (SHORT - 1, 1 - SHORT, True),  # the longest weights kept
        (SHORT, 1, False),  # the shortest refused
        (-1, -SHORT, False),
        (Fraction(SHORT - 1, 2), 1, True),  # scaled to (2^128 - 1, 2)
        (Fraction(1, 3), SHORT // 2, False),  # scaled past the bound, to (1, 3 * 2^127)
    ]

    @pytest.mark.parametrize("bound", ["default", "horner", "dot"])
    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("fibonacci", [True, False])
    def test_dot_and_horner_match_naive_cold_and_warm(self, monkeypatch, bound, m, fibonacci):
        # "horner" and "dot" move the bound so that every sum takes that path, on both sides of the real bound
        if bound != "default":
            monkeypatch.setattr(sequences, "_SHORT", 0 if bound == "horner" else 1 << 4000)
        kind = F if fibonacci else L
        for x, z, short in self.WEIGHTS:
            args = (x, z, 2, 3, -1, m)
            expected = [naive_weighted_sum(n, *args, fibonacci) for n in range(16)]
            for n in range(16):
                sequences.clear_caches()
                assert direct_sum(n, *args, kind) == expected[n], (x, z, n)
            sequences.clear_caches()
            for n in [*range(16), *range(15, -1, -1)]:
                assert direct_sum(n, *args, kind) == expected[n], (x, z, n)
            kept = bound == "dot" or bound == "default" and short
            assert sequences._weights.cache_info().currsize == 16 * kept, (x, z)

    def test_weights_are_kept_up_to_the_bound(self):
        top = self.SHORT - 1
        weights = sequences._weights(15, top, -top)
        assert max(w.bit_length() for w in weights) == 1933
        assert weights == tuple(math.comb(15, k) * top ** (15 - k) * (-top) ** k for k in range(16))

    @pytest.mark.parametrize("bits", [2000, 6644])
    def test_long_weights_never_reach_the_memo(self, bits):
        # the bound is checked before the lookup, so the memo sees neither the key nor the weights
        direct_sum(15, 3, -2, 1, 2, 1, 2, F)
        before = sequences._weights.cache_info()
        for x, z in [(1 << (bits - 1), 1), (-1, -(1 << (bits - 1))), (Fraction(1 << (bits - 1), 3), 1)]:
            assert direct_sum(15, x, z, 1, 2, 1, 2, F) == naive_weighted_sum(15, x, z, 1, 2, 1, 2, True)
        assert sequences._weights.cache_info() == before
        assert before.currsize == 1

    def test_clear_caches_empties_every_memo(self):
        assert sequences._weights in sequences._MEMOS
        direct_sum(6, 3, -2, 1, 2, 1, 2, F)
        direct_sum(6, 3, -2, 1, 2, 1, 2, L)
        assert all(memo.cache_info().currsize for memo in sequences._MEMOS)
        sequences.clear_caches()
        assert [memo.cache_info().currsize for memo in sequences._MEMOS] == [0] * len(sequences._MEMOS)


class TestBlocks:
    """A sum of 16 or more terms walks blocks of _BLOCK terms, each per term or expanded over its first W pair."""

    def test_basis_rows_predict_the_walk(self):
        # v_{k+i} = g0_i v_k + g1_i v_{k+1} is a theorem about W alone; the expected
        # values come from fib/lucas at each index, with no stepping
        for d in range(-40, 41):
            g0s, g1s = sequences._basis(1 if d & 1 else -1, lucas(d))
            assert len(g0s) == len(g1s) == sequences._BLOCK + 2
            assert (g0s[2], g1s[2]) == (-((-1) ** d), lucas(d))  # row 2 is W's own step
            for seq in (fib, lucas):
                for a in (-5, 0, 3):
                    for i, (g0, g1) in enumerate(zip(g0s, g1s)):
                        assert g0 * seq(a) + g1 * seq(a + d) == seq(a + d * i), (d, a, i)

    def test_safeguard_pair_is_a_power_of_q(self):
        # the safeguard reads (F_{D-1}, F_D) at D = de; it must be the first row of
        # (Q^d)^e, built here by e products with Q^d = [[F_{d-1}, F_d], [F_d, F_{d+1}]]
        for d in range(-30, 31):
            f0, f1 = naive_fib(d - 1), naive_fib(d)
            g0, g1 = 1, 0
            for e in range(71):
                assert sequences._fib_pair_at(d * e) == (g0, g1), (d, e)
                g0, g1 = g0 * f0 + g1 * f1, g0 * f1 + g1 * (f0 + f1)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.sampled_from((16, 31, 32, 33, 127, 128, 129, 160, 200, 600)),
        x=st.one_of(st.integers(-4, 4), st.fractions(max_denominator=6, min_value=-4, max_value=4)),
        z=st.one_of(st.integers(-4, 4), st.fractions(max_denominator=6, min_value=-4, max_value=4)),
        j=st.integers(1, 4),
        r=st.integers(0, 3),
        flip=st.booleans(),
        s=st.integers(-8, 8),
        m=st.integers(0, 8),
        fibonacci=st.booleans(),
    )
    @example(n=127, x=2, z=-1, j=1, r=1, flip=False, s=0, m=8, fibonacci=True)  # 4B - 1
    @example(n=128, x=-3, z=2, j=2, r=1, flip=True, s=5, m=3, fibonacci=False)  # 4B: a last block of one term
    @example(n=129, x=Fraction(-3, 2), z=Fraction(1, 4), j=4, r=3, flip=False, s=-8, m=8, fibonacci=False)
    @example(n=160, x=1, z=0, j=3, r=2, flip=True, s=1, m=2, fibonacci=True)  # 5B, z = 0
    @example(n=600, x=Fraction(2, 3), z=-1, j=3, r=2, flip=True, s=1, m=8, fibonacci=True)
    @example(n=600, x=-1, z=3, j=1, r=0, flip=False, s=7, m=4, fibonacci=False)  # jr = 0: W is constant
    @example(n=200, x=0, z=Fraction(-5, 2), j=2, r=3, flip=False, s=-3, m=5, fibonacci=True)  # x = 0
    def test_blocked_sums_match_naive_summation(self, n, x, z, j, r, flip, s, m, fibonacci):
        # The rule only chooses the cheaper kind of block, so each kind is also forced
        # for every block, at block edges and on both sides of the rule's switch
        j, r = (-j, r) if flip else (j, r)  # both signs of jr
        kind = F if fibonacci else L
        expected = naive_weighted_sum(n, x, z, j, r, s, m, fibonacci)
        assert direct_sum(n, x, z, j, r, s, m, kind) == expected
        for forced in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sequences, "_expands", lambda k, d, m, left: forced)
                assert direct_sum(n, x, z, j, r, s, m, kind) == expected

    @pytest.mark.parametrize("kind", [F, L])
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [16, 31, 32, 33, 64, 65, 200])
    def test_stepped_weights_match_naive_summation(self, n, m, kind):
        # each block's factors (l+1) x and (n-l) z come from ranges stepped by x and z,
        # which run backwards for a negative weight and scale a rational one first;
        # every block is forced per term and then forced expanded
        weights = (1, -1, 3, -2, Fraction(-3, 2), Fraction(5, 7))
        for x in weights:
            for z in weights:
                expected = naive_weighted_sum(n, x, z, 1, 3, -2, m, kind is F)
                for forced in (False, True):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(sequences, "_expands", lambda k, d, m, left: forced)
                        assert direct_sum(n, x, z, 1, 3, -2, m, kind) == expected, (x, z, forced)

    @staticmethod
    def kinds(monkeypatch, n, d, m, s=1, kind=F):
        # The kind of each block of direct_sum(n, 2, -1, 1, d, s, m, kind), checked against its literal sum
        chosen, rule, seq = [], sequences._expands, fib if kind is F else lucas

        def recording(k, d, m, left):
            chosen.append(rule(k, d, m, left))
            return chosen[-1]

        monkeypatch.setattr(sequences, "_expands", recording)
        literal = sum(math.comb(n, k) * 2 ** (n - k) * (-1) ** k * seq(d * k + s) ** m for k in range(n + 1))
        assert direct_sum(n, 2, -1, 1, d, s, m, kind) == literal
        assert len(chosen) == -(-(n + 1) // sequences._BLOCK)
        return chosen

    def test_rule_pins(self):
        # at m >= 2 a block expands when its first index is long against m (|d| + 6) B / 2,
        # whatever the terms left
        expands, b = sequences._expands, sequences._BLOCK
        for k, d, m in [(8 * b, 2, 2), (-8 * b, -2, 2), (39 * b, 20, 3), (-35 * b // 2, -1, 5)]:
            for left in (1, 10**9):
                assert not expands(k, d, m, left), (k, d, m, left)  # on the bound
                assert expands(k + (1 if k > 0 else -1), d, m, left), (k, d, m, left)
        assert not expands(10**9, 0, 0, 10**9)  # W^0
        # at m = 1 it expands when |d| < 100, its first index k is past (|d| + 6) B, and the
        # walk's end k + d left is past four times that: (|d| + 6) B = 8 B at |d| = 2
        for k, d in [(8 * b, 2), (-8 * b, -2), (8 * b, -2), (-8 * b, 2)]:
            # 10^6 terms left end the walk far from 0 on d's side
            assert not expands(k, d, 1, 10**6), (k, d)  # on the bound
            assert expands(k + (1 if k > 0 else -1), d, 1, 10**6), (k, d)
        for k, d in [(9 * b, 2), (-9 * b, -2), (9 * b, -2), (-9 * b, 2)]:
            left = ((32 * b if d > 0 else -32 * b) - k) // d  # the walk ends at k + d left = +-32 B, on the bound
            assert not expands(k, d, 1, left), (k, d)
            assert expands(k, d, 1, left + 1), (k, d)
        for d in (99, -99):
            k = 10**8 if d > 0 else -(10**8)  # far past both bounds
            assert expands(k, d, 1, 10**6) and not expands(k, d + (1 if d > 0 else -1), 1, 10**6)

    @pytest.mark.parametrize(
        "below,past",
        [
            ((128, 2, 2, 0), (128, 2, 2, 1)),  # the last block's first index 256, then 257
            ((128, -2, 2, 0), (128, -2, 2, -1)),  # -256, then -257
            ((63, 130, 2, 1), (64, 130, 2, 1)),  # a block at lo = 64, whose index 8321 > 8704 / 2
            # m = 1: the walk ends at s + 2 (n + 1) = 1024 = 32 B, on the bound, then 1025; -1024, then -1025
            ((511, 2, 1, 0), (511, 2, 1, 1)),
            ((511, -2, 1, 0), (511, -2, 1, -1)),
            ((160, 100, 1, 1), (160, 99, 1, 1)),  # |d| = 100 never expands at m = 1; at 99 the last block does
        ],
    )
    @pytest.mark.parametrize("kind", [F, L])
    def test_switch_pairs(self, monkeypatch, below, past, kind):
        n, d, m, s = below
        assert not any(self.kinds(monkeypatch, n, d, m, s, kind))
        monkeypatch.undo()
        n, d, m, s = past
        assert self.kinds(monkeypatch, n, d, m, s, kind)[-1]

    def test_one_block_sums_with_a_huge_step_take_per_term_blocks(self, monkeypatch):
        # Expanding these over the first pair builds a basis table that no later block
        # reuses: with every block expanded, (20, 2500, 8) takes 13x as long.  At m = 1 a
        # huge step loses in every block, however many follow: (2000, -430, 1) takes 1.3x
        for n, d, m in [
            (20, 2500, 8), (16, -2500, 6), (32, 128, 2), (60, 3, 12), (40, 130, 8), (3, 100000, 1), (200, -430, 1),
        ]:
            assert self.kinds(monkeypatch, n, d, m) == [False] * -(-(n + 1) // sequences._BLOCK)

    @pytest.mark.parametrize("n,d,m", [(1000, 2, 2), (1000, -2, 2), (2000, -6, 1), (2000, 6, 1)])
    def test_long_sums_with_a_small_step_expand_their_later_blocks(self, monkeypatch, n, d, m):
        chosen = self.kinds(monkeypatch, n, d, m)
        first = chosen.index(True)
        assert first <= 16 and all(chosen[first:])
        assert not chosen[0]  # the first block's W are short against its growth

    @pytest.mark.parametrize("kind", [F, L])
    @pytest.mark.parametrize("x", [2, Fraction(-3, 2)])
    def test_stepped_sum_makes_at_most_four_sequence_calls(self, monkeypatch, kind, x):
        # both kinds of block walk W from the four seed values, and the safeguard reads
        # (F_{D-1}, F_D) from the private pair function, not fib
        calls, chosen, rule = [], [], sequences._expands

        def counting(seq):
            def wrapper(k):
                calls.append(k)
                return seq(k)

            return wrapper

        monkeypatch.setattr(sequences, "fib", counting(sequences.fib))
        monkeypatch.setattr(sequences, "lucas", counting(sequences.lucas))
        monkeypatch.setattr(sequences, "_expands", lambda *args: chosen.append(rule(*args)) or chosen[-1])
        direct_sum(600, x, -1, 3, -2, 1, 8, kind)
        assert 0 < len(calls) <= 4
        assert not chosen[0] and chosen[-1]  # both kinds of block ran

    @staticmethod
    def wrong_jump(monkeypatch):
        # a basis row off by one: the rows that jump the pair past a full expanded block
        real = sequences._basis

        def off_by_one(e0, e1):
            g0s, g1s = real(e0, e1)
            g1s[sequences._BLOCK] += 1
            return g0s, g1s

        monkeypatch.setattr(sequences, "_basis", off_by_one)

    @staticmethod
    def wrong_step(monkeypatch):
        # F_d off by one at the step d = -6 only: the seed v_1 and L_d go wrong together
        real = sequences.fib
        monkeypatch.setattr(sequences, "fib", lambda k: real(k) + (k == -6))

    @pytest.mark.parametrize("mutation", ["wrong_jump", "wrong_step"])
    def test_safeguard_raises_on_a_wrong_walk(self, monkeypatch, capsys, mutation):
        getattr(self, mutation)(monkeypatch)
        with pytest.raises(sequences.RecurrenceError):
            direct_sum(600, 1, 1, 3, -2, 1, 8, F)
        assert main(["sum", "--n", "600", "--j", "3", "--r=-2", "--s", "1", "--m", "8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: walked W disagrees with W_")

    @pytest.mark.parametrize("mutation", ["wrong_jump", "wrong_step"])
    def test_safeguard_fails_a_verify_point(self, monkeypatch, capsys, mutation):
        getattr(self, mutation)(monkeypatch)
        # ODD_F's oracle is sum C(n,k) F_{j(2rk+s)}^(2m+1): W^5 with step 2jr = -6
        argv = ["verify", "--ids", "ODD_F", "--n", "300..300", "--j", "1..1", "--r=-3..-3", "--s", "0..0"]
        assert main([*argv, "--m", "2..2", "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL ODD_F" in out and "RecurrenceError" in out

    @pytest.mark.parametrize("kind", [F, L])
    def test_safeguard_checks_a_memoized_row(self, monkeypatch, capsys, kind):
        # a sum of at most 16 terms within the byte bound walks W once, to build its row of W^m
        self.wrong_step(monkeypatch)
        sequences.clear_caches()
        with pytest.raises(sequences.RecurrenceError):
            direct_sum(12, 1, 1, 3, -2, 1, 8, kind)
        assert sequences._power_row.cache_info().currsize == 0
        argv = ["sum", "--n", "12", "--j", "3", "--r=-2", "--s", "1", "--m", "8", "--seq", kind.value]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: walked W disagrees with W_-93\n"
        # ODD_F's oracle at n = 12 is a row of W^5 with step 2jr = -6
        argv = ["verify", "--ids", "ODD_F", "--n", "12..12", "--j", "1..1", "--r=-3..-3", "--s", "0..0"]
        assert main([*argv, "--m", "2..2", "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL ODD_F" in out and "RecurrenceError" in out
