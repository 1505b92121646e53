"""Arbitrary-precision Fibonacci/Lucas values and the direct-summation oracle.

Everything here is exact: indices are plain Python ints (any magnitude) and
values are Python ints.  A weighted sum follows the package's one value rule:
an `int` when it is integral, and a `fractions.Fraction` only when it has a
denominator, which only rational weights can give it.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable

class SequenceKind(Enum):
    """Which of the two companion sequences a sum is taken over."""

    FIB = "F"
    LUCAS = "L"


# A fast-doubling call adds about log2(n) entries; the full default grid needs 338.
@lru_cache(maxsize=1024)
def _fib_pair(n: int) -> tuple[int, int]:
    # (F_n, F_{n+1}) for n >= 0 by fast doubling:
    #   F_{2k}   = F_k (2 F_{k+1} - F_k)
    #   F_{2k+1} = F_k^2 + F_{k+1}^2
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


# fib and lucas keep their own memos, so a repeated index costs one lookup and
# no Python frame; the full default grid needs 591 and 599 entries.
@lru_cache(maxsize=1024)
def fib(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n-1) F_n.

    O(log |n|) big-integer multiplications.
    """
    if n >= 0:
        return _fib_pair(n)[0]
    f = _fib_pair(-n)[0]
    return f if n & 1 else -f


@lru_cache(maxsize=1024)
def lucas(n: int) -> int:
    """L_n for any integer n, with L_{-n} = (-1)^n L_n."""
    k = abs(n)
    a, b = _fib_pair(k)
    value = 2 * b - a
    if n < 0 and k & 1:
        return -value
    return value


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly; 0 when k is outside [0, n].  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


_MEMOS = (fib, lucas, _fib_pair)


def clear_caches() -> None:
    """Empty all three sequence memos: `fib`, `lucas` and `_fib_pair`.

    Used by cold-start benchmarks, so that a timed evaluation recomputes
    every Fibonacci and Lucas value it needs.  The memos are reached through
    `_MEMOS`, not the module names, so this also works while those names are
    rebound (perfbench's trace mode wraps `fib` and `lucas`).
    """
    for memo in _MEMOS:
        memo.cache_clear()


def as_exact(q: int | Fraction) -> int | Fraction:
    """The package's one value rule: q as an int when it is integral, otherwise the Fraction unchanged."""
    if isinstance(q, int) or q.denominator != 1:
        return q
    return q.numerator


def direct_sum(
    n: int,
    x: int | Fraction,
    z: int | Fraction,
    j: int,
    r: int,
    s: int,
    m: int,
    kind: SequenceKind,
) -> int | Fraction:
    """Sum of C(n,k) x^(n-k) z^k W_{j(rk+s)}^m over k = 0..n, term by term.

    W is F or L per `kind`.  0^0 = 1 throughout: for the x and z weight
    powers and for W^m when W = 0, m = 0.  This is the brute-force oracle
    every closed form is checked against; it never consults any identity.

    W_{j(rk+s)} is walked by the addition formula from four seed values.
    Up to 16 terms the sum is Horner's rule in x over a precomputed row of
    C(n,k), with no division.  A longer sum is cut into blocks of 16 terms,
    each summed by a loop that steps the weight by its ratio
    (n-k)z / ((k+1)x) from a small integer weight, and the block sums are
    merged as exact integer ratios by binary splitting.

    The sum is an int when it is integral, as it always is for integral
    weights, and a Fraction only when it has a denominator.  Rational
    weights are scaled by the common denominator D of x and z: the sum is
    the integer sum at (D x, D z) divided by D^n.
    """
    if n < 0:
        raise ValueError(f"direct_sum requires n >= 0, got n={n}")
    if m < 0:
        raise ValueError(f"direct_sum requires m >= 0, got m={m}")
    seq = fib if kind is SequenceKind.FIB else lucas
    # an int is its own numerator over 1; a float has no denominator and raises AttributeError
    if x.denominator == z.denominator == 1:
        return _integer_sum(n, x.numerator, z.numerator, j, r, s, m, seq)
    den = math.lcm(x.denominator, z.denominator)
    return as_exact(Fraction(_integer_sum(n, int(x * den), int(z * den), j, r, s, m, seq), den**n))


# Terms per block.  A sum of more terms is cut into blocks of this many,
# whose weights stay small, and the block sums are merged by binary splitting.
_BLOCK = 16
# The binomial rows C(n, 0..n) for n < _BLOCK: every sum of at most one block of terms.
_ROWS = tuple(tuple(math.comb(n, k) for k in range(n + 1)) for n in range(_BLOCK))


def _integer_sum(
    n: int, x: int, z: int, j: int, r: int, s: int, m: int, seq: Callable[[int], int]
) -> int:
    # The terms t_k W_{a+kd}^m with t_k = C(n,k) x^(n-k) z^k, a = js, d = jr.
    if x == 0:
        # only k = n survives, since 0^0 = 1
        return z**n * seq(j * (r * n + s)) ** m
    # W follows the Fibonacci recurrence, so stepping its index by d is the
    # matrix product Q^a Q^d, as in fast doubling:
    #   W_{a+d} = F_{d-1} W_a + F_d W_{a+1},  W_{a+d+1} = F_d W_a + F_{d+1} W_{a+1}.
    a = j * s
    w, w1 = seq(a), seq(a + 1)
    f0, f1 = fib(j * r - 1), fib(j * r)
    f2 = f0 + f1
    if n < _BLOCK:
        # Horner's rule in x, so no term divides
        total, zk = 0, 1
        for c in _ROWS[n]:
            total = total * x + c * zk * w**m
            zk *= z
            w, w1 = f0 * w + f1 * w1, f1 * w + f2 * w1
        return total
    return _split_sum(n, x, z, m, w, w1, f0, f1, f2)


def _terms(
    lo: int, hi: int, t: int, n: int, x: int, z: int, m: int, w: int, w1: int, f0: int, f1: int, f2: int
) -> tuple[int, int, int]:
    # The sum of t_k W_k^m over k in [lo, hi) from t = t_lo, and (W_hi, W_hi+1).
    # t_{k+1} = t_k (n-k) z / ((k+1) x), and the division is exact.
    total = 0
    for k in range(lo, hi):
        total += t * w**m
        t = t * (n - k) * z // ((k + 1) * x)
        w, w1 = f0 * w + f1 * w1, f1 * w + f2 * w1
    return total, w, w1


def _split_sum(n: int, x: int, z: int, m: int, w: int, w1: int, f0: int, f1: int, f2: int) -> int:
    # Binary splitting (Haible and Papanikolaou, 1998).  Over the terms [lo, hi)
    # with c = hi - lo, t_hi / t_lo = P / Q for P = perm(n-lo, c) z^c and
    # Q = perm(hi, c) x^c, and T = (Q / t_lo) * (the block's sum) is the stepped
    # loop's total from t = Q: Q holds every (k+1) x the loop divides by.
    # Two halves merge as (P1 P2, Q1 Q2, Q2 T1 + P1 T2), and the sum is t_0 T / Q.
    def split(lo: int, hi: int) -> tuple[int, int, int]:
        nonlocal w, w1
        c = hi - lo
        if c <= _BLOCK:
            q = math.perm(hi, c) * x**c
            t, w, w1 = _terms(lo, hi, q, n, x, z, m, w, w1, f0, f1, f2)
            return math.perm(n - lo, c) * z**c, q, t
        # whole blocks go left, so only the last block is short
        mid = lo + (c + 2 * _BLOCK - 1) // (2 * _BLOCK) * _BLOCK
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, n + 1)
    return x**n * t // q
