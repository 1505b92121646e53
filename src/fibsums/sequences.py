"""Arbitrary-precision Fibonacci/Lucas values and the direct-summation oracle.

Everything here is exact: indices are plain Python ints (any magnitude),
values are Python ints, and weighted sums are `fractions.Fraction`.
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


def fib(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n-1) F_n.

    O(log |n|) big-integer multiplications.
    """
    if n >= 0:
        return _fib_pair(n)[0]
    f = _fib_pair(-n)[0]
    return f if n & 1 else -f


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


def clear_caches() -> None:
    """Drop memoized sequence values.  Used by cold-start benchmarks."""
    _fib_pair.cache_clear()


def as_exact(q: int | Fraction) -> int | Fraction:
    """q as an int when it is integral, otherwise the Fraction unchanged."""
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
) -> Fraction:
    """Sum of C(n,k) x^(n-k) z^k W_{j(rk+s)}^m over k = 0..n, term by term.

    W is F or L per `kind`.  0^0 = 1 throughout: for the x and z weight
    powers and for W^m when W = 0, m = 0.  This is the brute-force oracle
    every closed form is checked against; it never consults any identity.

    Rational weights are scaled by the common denominator D of x and z:
    the sum is the integer sum at (D x, D z) divided by D^n.
    """
    if n < 0:
        raise ValueError(f"direct_sum requires n >= 0, got n={n}")
    if m < 0:
        raise ValueError(f"direct_sum requires m >= 0, got m={m}")
    seq = fib if kind is SequenceKind.FIB else lucas

    xi = as_exact(x)
    zi = as_exact(z)
    if isinstance(xi, int) and isinstance(zi, int):
        return Fraction(_integer_sum(n, xi, zi, j, r, s, m, seq))
    den = math.lcm(xi.denominator, zi.denominator)
    return Fraction(_integer_sum(n, int(xi * den), int(zi * den), j, r, s, m, seq), den**n)


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
    # t_{k+1} = t_k (n-k) z / ((k+1) x), and the division is exact.
    t = x**n
    total = 0
    for k in range(n + 1):
        total += t * w**m
        t = t * (n - k) * z // ((k + 1) * x)
        w, w1 = f0 * w + f1 * w1, f1 * w + f2 * w1
    return total
