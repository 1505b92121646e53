import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibsums import SequenceKind, binomial, direct_sum, fib, lucas, sequences

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

    def test_zero_weight_conventions(self):
        # 0^0 = 1 for the weights: only the k=n (resp. k=0) term survives
        assert direct_sum(3, 0, 1, 1, 1, 0, 1, F) == fib(3)
        assert direct_sum(3, 1, 0, 1, 1, 2, 1, L) == lucas(2)
        # W = 0 with m = 0 contributes 1, not 0
        assert direct_sum(0, 1, 1, 1, 1, 0, 0, F) == 1

    @pytest.mark.parametrize("kind", [F, L])
    def test_m_zero_is_binomial_theorem(self, kind):
        for n in range(9):
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
        # direct_sum steps the index j(rk+s) by jr with the addition formula
        # and the weight by exact division; the naive sum recomputes both.
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
        assert imported <= {"__future__", "enum", "fractions", "functools", "math", "typing"}
