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


def _fib_pair_at(n: int) -> tuple[int, int]:
    # (F_{n-1}, F_n) for any integer n, from (F_k, F_{k+1}) = _fib_pair(k), k = |n|, by
    # F_{k-1} = F_{k+1} - F_k and the one reflection rule F_{-k} = (-1)^(k-1) F_k.
    # fib, lucas and the oracle's safeguard all read it.
    a, b = _fib_pair(abs(n))
    if n >= 0:
        return b - a, a
    return (-b, a) if n & 1 else (b, -a)


# fib and lucas keep their own memos, so a repeated index costs one lookup and
# no Python frame; the full default grid needs 591 and 599 entries.
@lru_cache(maxsize=1024)
def fib(n: int) -> int:
    """F_n for any integer n, with F_{-n} = (-1)^(n-1) F_n.

    O(log |n|) big-integer multiplications.
    """
    return _fib_pair_at(n)[1]


@lru_cache(maxsize=1024)
def lucas(n: int) -> int:
    """L_n = 2 F_{n-1} + F_n for any integer n, so L_{-n} = (-1)^n L_n."""
    f0, f1 = _fib_pair_at(n)
    return 2 * f0 + f1


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

    W_{j(rk+s)} is walked by its order-2 recurrence from four seed values.
    Up to 16 terms the sum is Horner's rule in x over a precomputed row of
    C(n,k), with no division.  A longer sum is cut into blocks of 16 terms,
    each summed by a loop that steps the weight by its ratio
    (n-k)z / ((k+1)x) from a small integer weight, and the block sums are
    merged as exact integer ratios by binary splitting.

    Past a measured crossover in n, m and the step d = jr (see
    `_steps_powers`), a blocked sum does not raise each W to the m-th power:
    u_k = W_{js+dk}^m follows a linear recurrence of order m+1 with Fibonomial
    coefficients, built once per sum from W's own order-2 step, so each term
    costs m+1 products by small integers.  As a safeguard the stepped u_{n+1}
    is compared with W_{js+D}^m = (F_{D-1} W_{js} + F_D W_{js+1})^m for
    D = (n+1)d, whose Fibonacci pair comes by fast doubling, not by stepping;
    a mismatch raises RecurrenceError, an internal fault and never a value.

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
# A blocked sum steps W^m by its order-(m+1) recurrence when m >= 2,
# n >= max(64, 8 m^2) and |d| n m > _STEPPED_WORK, and otherwise steps W and takes
# w**m per term.  A stepped term is m+1 products of a value of about 0.69 |d| k m
# bits by coefficients of up to about 0.17 |d| m^2 bits, against the few squarings
# of w**m, so it pays only on long values (|d| n m) that are long against the
# coefficients (n against m^2); |d| m alone is the wrong axis.  Min-of-5 cold
# timings of one sum (2-vCPU VM, Python 3.11), w**m against stepped powers:
#   (n, jr, m) = (2000, 21, 3)    678 ms against 59 ms          stepped
#                (1000, 15, 6)    166 ms against 41 ms          stepped
#                (418, -430, 7)   6.1 s against 3.5 s           stepped
#                (600, -6, 8)     14.0 ms against 10.1 ms       stepped
#                (200, 2500, 2)   0.91 s against 0.45 s         stepped
#                (20, 2500, 8)    31 ms against 335 ms          w**m
#                (16, -2500, 6)   13 ms against 92 ms           w**m
#                (200, -6, 8)     0.82 ms against 1.26 ms       w**m
#                (1000, 2, 2)     1.53 ms against 2.01 ms       w**m
#                (32, 128, 2)     0.10 ms against 0.14 ms       w**m
# Over 340 points near the boundaries (n <= 2000, 2 <= m <= 8) stepping never loses 10%
# where this rule picks it, and w**m loses 10% to 2.8x at 81: the rule errs to w**m.
_STEPPED_WORK = 10000


class RecurrenceError(ArithmeticError):
    """The oracle's stepped powers disagree with a power computed directly: an internal fault."""


def _steps_powers(n: int, d: int, m: int) -> bool:
    # Whether a blocked sum steps W^m itself rather than W: see _STEPPED_WORK.
    return m >= 2 and n >= max(64, 8 * m * m) and abs(d) * n * m > _STEPPED_WORK


def _integer_sum(
    n: int, x: int, z: int, j: int, r: int, s: int, m: int, seq: Callable[[int], int]
) -> int:
    # The terms t_k v_k^m with t_k = C(n,k) x^(n-k) z^k and v_k = W_{a+kd}, a = js, d = jr.
    if m == 0:
        j = 0  # every W^0 is 1, so the constant W_0 stands in for W
    if x == 0:
        # only k = n survives, since 0^0 = 1
        return z**n * seq(j * (r * n + s)) ** m
    # v follows v_{k+2} = L_d v_{k+1} - (-1)^d v_k (Cayley-Hamilton on Q^d, of trace L_d
    # and determinant (-1)^d), from v_0 = W_a and v_1 = W_{a+d} = F_{d-1} W_a + F_d W_{a+1}.
    a, d = j * s, j * r
    w, w1 = seq(a), seq(a + 1)
    f0, f1 = fib(d - 1), fib(d)
    e0, e1 = 1 if d & 1 else -1, 2 * f0 + f1  # -(-1)^d and L_d
    v, v1 = w, f0 * w + f1 * w1
    if n < _BLOCK:
        # Horner's rule in x, so no term divides
        total, zk = 0, 1
        for c in _ROWS[n]:
            total = total * x + c * zk * v**m
            zk *= z
            v, v1 = v1, e0 * v + e1 * v1
        return total
    if not _steps_powers(n, d, m):
        return _split_sum(n, x, z, m, _terms, (v, v1), (e0, e1))[0]
    # u_k = v_k^m follows its own recurrence from the seeds u_0..u_m.  The safeguard
    # checks the stepped u_{n+1} against W_{a+D}^m = (F_{D-1} W_a + F_D W_{a+1})^m, D = (n+1)d.
    g0, g1 = _fib_pair_at((n + 1) * d)
    last = g0 * w + g1 * w1
    e, u = _power_recurrence(m, e0, e1), []
    for _ in range(m + 1):
        u.append(v**m)
        v, v1 = v1, e0 * v + e1 * v1
    total, u = _split_sum(n, x, z, m, _power_terms, tuple(u), e)
    if u[0] != last**m:
        raise RecurrenceError(f"stepped W^{m} disagrees with W_{a + (n + 1) * d}^{m}")
    return total


def _power_recurrence(m: int, e0: int, e1: int) -> tuple[int, ...]:
    # (e_0, .., e_m) with u_{k+m+1} = sum_i e_i u_{k+i} for u_k = W_{a+dk}^m, from W's step
    # (e0, e1) = (-(-1)^d, L_d) (Jarden, Recurring Sequences, 1958).  By Binet its characteristic
    # polynomial is prod_{i=0..m} (X - alpha^(d(m-i)) beta^(di)), whose X^(m+1-i) coefficient
    # is (-1)^i (-1)^(d i(i-1)/2) [m+1, i] (Knuth, TAOCP 1.2.8), for the Fibonomial [N, i] =
    # prod_{t=1..i} U_{N+1-t} / U_t over U_t = F_{td} / F_d; d = 0 gives U_t = t and C(N, i).
    us = [0, 1]  # U_t follows W's step: U_{t+1} = e1 U_t + e0 U_{t-1}
    for _ in range(m):
        us.append(e1 * us[-1] + e0 * us[-2])
    e, c = [], 1
    for i in range(1, m + 2):
        c = c * us[m + 2 - i] // us[i]  # [m+1, i], an exact division
        e.append((-1) ** (i - 1) * (-e0) ** (i * (i - 1) // 2) * c)  # e_{m+1-i}, with -e0 = (-1)^d
    return tuple(reversed(e))


def _terms(
    lo: int, hi: int, t: int, n: int, x: int, z: int, m: int, vs: tuple[int, int], e: tuple[int, int]
) -> tuple[int, tuple[int, int]]:
    # The sum of t_k v_k^m over k in [lo, hi) from t = t_lo and vs = (v_lo, v_lo+1),
    # and (v_hi, v_hi+1); e = (e_0, e_1) steps v by v_{k+2} = e_0 v_k + e_1 v_{k+1}.
    # t_{k+1} = t_k (n-k) z / ((k+1) x), and the division is exact.
    (v, v1), (e0, e1) = vs, e
    total = 0
    for k in range(lo, hi):
        total += t * v**m
        t = t * (n - k) * z // ((k + 1) * x)
        v, v1 = v1, e0 * v + e1 * v1
    return total, (v, v1)


def _power_terms(
    lo: int, hi: int, t: int, n: int, x: int, z: int, m: int, u: tuple[int, ...], e: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    # _terms over the powers u_k = W_k^m from u = u_lo..u_{lo+m}, stepped by their
    # recurrence e: the sum of t_k u_k over k in [lo, hi), and u_hi..u_{hi+m}.
    # m is unused: both loops take _split_sum's one signature.
    total = 0
    for k in range(lo, hi):
        total += t * u[0]
        t = t * (n - k) * z // ((k + 1) * x)
        u = (*u[1:], sum(map(int.__mul__, e, u)))
    return total, u


def _split_sum(
    n: int, x: int, z: int, m: int, terms: Callable, state: tuple[int, ...], coeffs: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    # Binary splitting (Haible and Papanikolaou, 1998).  Over the terms [lo, hi)
    # with c = hi - lo, t_hi / t_lo = P / Q for P = perm(n-lo, c) z^c and
    # Q = perm(hi, c) x^c, and T = (Q / t_lo) * (the block's sum) is the stepped
    # loop's total from t = Q: Q holds every (k+1) x the loop divides by.
    # Two halves merge as (P1 P2, Q1 Q2, Q2 T1 + P1 T2), and the sum is t_0 T / Q.
    # `terms` (_terms or _power_terms) sums a block and carries the sequence state past it.
    def split(lo: int, hi: int) -> tuple[int, int, int]:
        nonlocal state
        c = hi - lo
        if c <= _BLOCK:
            q = math.perm(hi, c) * x**c
            t, state = terms(lo, hi, q, n, x, z, m, state, coeffs)
            return math.perm(n - lo, c) * z**c, q, t
        # whole blocks go left, so only the last block is short
        mid = lo + (c + 2 * _BLOCK - 1) // (2 * _BLOCK) * _BLOCK
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, n + 1)
    return x**n * t // q, state
