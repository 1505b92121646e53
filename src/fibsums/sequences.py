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
from operator import mul
from typing import Callable

class SequenceKind(Enum):
    """Which of the two companion sequences a sum is taken over."""

    FIB = "F"
    LUCAS = "L"


# A module global reads in about 16 ns on Python 3.11, `SequenceKind.FIB` in about 160 ns.
_FIB, _LUCAS = SequenceKind.FIB, SequenceKind.LUCAS


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
    # It is alpha^n = F_{n-1} + F_n alpha: fib, lucas, the oracle's safeguard and the
    # power-reduction engine's lemma points all read it.
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


def clear_caches() -> None:
    """Empty all five sequence memos: `fib`, `lucas`, `_fib_pair`, `_power_row` and `_weights`.

    Used by cold-start benchmarks.  The memos are reached through `_MEMOS`,
    not the module names, so this also works while perfbench's trace mode
    has rebound `fib` and `lucas`.
    """
    for memo in _MEMOS:
        memo.cache_clear()


def as_exact(q: int | Fraction) -> int | Fraction:
    """The package's one value rule: q as an int when it is integral, otherwise the Fraction unchanged."""
    if isinstance(q, int) or q.denominator != 1:
        return q
    return q.numerator


# Python 3.12 builds a Fraction from coprime ints with `_from_coprime_ints`; 3.10 and 3.11 with `_normalize=False`.
_coprime_fraction = getattr(
    Fraction, "_from_coprime_ints", lambda num, den: Fraction(num, den, _normalize=False)
)


def over_power(total: int, den: int, n: int) -> int | Fraction:
    """total / den^n by the value rule, for den >= 1 and n >= 0: as_exact(Fraction(total, den**n)).

    The rational paths of `direct_sum` and `binomial_rhs` end here.  Fraction's
    own gcd of total and den^n is quadratic in their size.  Here a multiple of
    den^n costs one division.  Otherwise the common factor of the remainder
    and den^n, all of whose primes are den's, is divided out as it is found,
    in steps den^k for k = 1, 2, 4, ... summing to at most n: a step that
    den^k divides is one division, and any other divides out gcd(den^k,
    remainder), which leaves the remainder no prime that den^k holds more
    often.  The steps stop at a gcd of 1 or when the k's reach n, so each
    runs on the reduced remainder, and a remainder coprime to den costs one
    division by den.
    """
    den_n = den**n
    whole, part = divmod(total, den_n)
    if not part:
        return whole
    # total / den^n = (whole rest + part / common) / rest, for the common factor common = den^n / rest
    rest, k, done = 1, 1, 0
    while done < n:
        k = min(k, n - done)
        step = den**k
        q, r = divmod(part, step)
        if r:
            g = math.gcd(step, r)
            if g == 1:
                break
            q, rest = part // g, rest * (step // g)
        part = q
        done += k
        k *= 2
    rest *= den ** (n - done) if done else den_n
    return _coprime_fraction(whole * rest + part, rest)


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

    W is F or L per `kind`, which must be a `SequenceKind` member (any other
    value raises ValueError).  0^0 = 1 throughout: for the x and z weight
    powers and for W^m when W = 0, m = 0.  This is the brute-force oracle
    every closed form is checked against; it never consults any identity.

    W_{j(rk+s)} is walked by its order-2 recurrence from four seed values.
    A sum of at most 16 terms with short values, m (|js| + 15|jr|) <= 3000,
    reads a memoized row of 16 W^m (`_power_row`).  With short weights,
    |x|, |z| < 2^128 after scaling, it is one dot product of that row and a
    memoized row of the weights C(n,k) x^(n-k) z^k (`_weights`); with
    longer weights, which no memo holds, it is Horner's rule in x over the
    row.  Neither divides.  Every other sum is walked in blocks of 32 terms.
    Block [lo, hi) weighs its terms by small integers w_k = t_k Q / t_lo, Q
    holding every (k+1)x of the block, and adds t_lo (its weighted sum) / Q,
    one exact division; t_lo steps once per block.  A block whose first W is
    short takes each W to the m-th power.  A block whose first W is long
    writes every W of the block as g0_i v + g1_i v' over its first pair
    (v, v'), by W's own step, so its weighted sum of m-th powers is the
    m+1 monomials v^l v'^(m-l) with small-integer coefficients, and the
    pair then jumps past the block (see `_expands`).  Both reassociate the
    same exact sum.

    As a safeguard each walk's final pair, at D = (n+1)d or a row's 16d, is
    compared with (W_{js+D}, W_{js+D+d}), W_{js+D} = F_{D-1} W_{js} + F_D
    W_{js+1}, whose Fibonacci pair comes by fast doubling, not by walking; a
    mismatch raises RecurrenceError, an internal fault and never a value.

    The sum is an int when it is integral, as it always is for integral
    weights, and a Fraction only when it has a denominator.  Rational
    weights are scaled by the common denominator D of x and z: the sum is
    the integer sum at (D x, D z) divided by D^n.  Any other weight, a
    float or a Decimal, raises TypeError.
    """
    if n < 0:
        raise ValueError(f"direct_sum requires n >= 0, got n={n}")
    if m < 0:
        raise ValueError(f"direct_sum requires m >= 0, got m={m}")
    if kind is _FIB:
        seq = fib
    elif kind is _LUCAS:
        seq = lucas
    else:
        raise ValueError(f"direct_sum requires a SequenceKind, got kind={kind!r}")
    # an int is its own numerator over 1; a float or a Decimal has no denominator
    try:
        integral = x.denominator == z.denominator == 1
    except AttributeError:
        raise TypeError(f"direct_sum takes int or Fraction weights, got x={x!r}, z={z!r}") from None
    if integral:
        return _integer_sum(n, x.numerator, z.numerator, j, r, s, m, seq)
    den = math.lcm(x.denominator, z.denominator)
    return over_power(_integer_sum(n, int(x * den), int(z * den), j, r, s, m, seq), den, n)


# A sum of at most _HORNER terms with short values weighs them by a binomial row C(n, 0..n), n < _HORNER.
_HORNER = 16
_ROWS = tuple(tuple(math.comb(n, k) for k in range(n + 1)) for n in range(_HORNER))
# Terms per block of a longer sum, whose weights are products of 32 factors (l+1)x or (n-l)z.
_BLOCK = 32


class RecurrenceError(ArithmeticError):
    """The oracle's walk of W disagrees with a value computed directly: an internal fault."""


# A block whose first W is W_k expands over its first pair when m >= 2 and 2|k| > m (|d| + 6) _BLOCK,
# and otherwise takes w**m per term.  An expanded block costs about 2m products of its first pair,
# of about 0.69 |k| bits each, and m+1 dot products over a table of (m+1) _BLOCK coefficients of up
# to 0.69 |d| m _BLOCK bits, built once per sum; a per-term block costs _BLOCK powers.  So expanding
# pays once W_k is long against the block's growth and the table, both of which grow with m, and
# never at m = 1, which has no power to save.  Min-of-5 cold timings of direct_sum(n, 2, -1, 1, jr,
# 1, m, F) (2-vCPU VM, Python 3.11; `tools/oracle_table.py`), every block per term, every block
# expanded, and by this rule, with the blocks it expands:
#   (n, jr, m) = (2000, 21, 3)    788 ms     64.4 ms    61.2 ms    61 of 63
#                (1000, 15, 6)    237 ms     44.0 ms    45.8 ms    27 of 32
#                (418, -430, 7)   6.42 s     975 ms     1.20 s     10 of 14
#                (600, -6, 8)     13.5 ms    5.06 ms    5.91 ms    10 of 19
#                (200, 2500, 2)   911 ms     279 ms     323 ms      5 of 7
#                (20, 2500, 8)    30.4 ms    404 ms     30.6 ms     0 of 1
#                (16, -2500, 6)   13.0 ms    101 ms     12.8 ms     0 of 1
#                (200, -6, 8)     0.86 ms    0.93 ms    0.87 ms     0 of 7
#                (1000, 2, 2)     1.69 ms    1.09 ms    1.11 ms    28 of 32
#                (32, 128, 2)     0.12 ms    0.32 ms    0.12 ms     0 of 2
#                (100, 1, 0)      0.04 ms    0.06 ms    0.05 ms     0 of 4
#                (2000, 50, 0)    1.28 ms    1.39 ms    1.28 ms     0 of 63
#                (5000, 1, 3)     63.7 ms    14.4 ms    14.5 ms   146 of 157
#                (391, 15, 7)     23.9 ms    5.34 ms    6.47 ms     8 of 13
#                (60, 3, 12)      0.07 ms    0.41 ms    0.08 ms     0 of 2
#                (12, 150, 5)     0.07 ms    0.33 ms    0.08 ms     0 of 1
#                (15, 300, 2)     0.07 ms    0.21 ms    0.07 ms     0 of 1
#                (3, 100000, 1)   32.1 ms    1.09 s     32.4 ms     0 of 1
# The last three have at most 16 terms but values past the rows' byte bound, so they take one block.
# Over 1,549 sums (126 pairs of 1 <= jr <= 2500 and 1 <= m <= 12, 16 <= n <= 2000), timed block by
# block before the expanded blocks' dot products ran in C, the rule was within 7% of the best first
# expanded block in geometric mean, at most 3% slower than every block per term where that takes over
# 1 ms, and at most 0.12 ms slower below it.
def _expands(k: int, d: int, m: int) -> bool:
    return m >= 2 and 2 * abs(k) > m * (abs(d) + 6) * _BLOCK


def _basis(e0: int, e1: int) -> tuple[list[int], list[int]]:
    # The rows g_i = (g0_i, g1_i), i = 0.._BLOCK+1, with v_{k+i} = g0_i v_k + g1_i v_{k+1}
    # for every k: g_0 = (1, 0), g_1 = (0, 1), and each coordinate follows W's own step.
    g0s, g1s = [1, 0], [0, 1]
    for _ in range(_BLOCK):
        g0s.append(e0 * g0s[-2] + e1 * g0s[-1])
        g1s.append(e0 * g1s[-2] + e1 * g1s[-1])
    return g0s, g1s


def _monomials(g0s: list[int], g1s: list[int], m: int) -> list[list[int]]:
    # Row l holds C(m,l) g0_i^l g1_i^(m-l) for each basis row i: the binomial expansion of (g0_i v + g1_i v1)^m.
    return [[math.comb(m, l) * g0**l * g1 ** (m - l) for g0, g1 in zip(g0s, g1s)] for l in range(m + 1)]


def _expanded_sum(ws: list[int], table: list[list[int]], v: int, v1: int) -> int:
    # sum_i w_i (g0_i v + g1_i v1)^m = sum_l c_l v^l v1^(m-l), whose coefficients c_l are dot products
    # of the weights with the table's rows.  Horner's rule runs over the squares: the monomials pair
    # from the top as (c_{l-1} v1 + c_l v) v^(l-1) v1^(m-l), and an even m leaves c_0 v1^m apart.
    # (A helper, not inline: comprehensions in _integer_sum would turn its locals into cells.)
    m = len(table) - 1
    coeffs = [sum(map(mul, ws, row)) for row in table]
    odd = m & 1
    pairs = [c0 * v1 + c1 * v for c0, c1 in zip(coeffs[1 - odd :: 2], coeffs[2 - odd :: 2])]
    block, power = (pairs or coeffs)[-1], 1
    if m > 1:
        square, square1 = v * v if m > 2 else 0, v1 * v1
        for pair in reversed(pairs[:-1]):
            power *= square1
            block = block * square + pair * power
        if not odd:
            block = block * v + coeffs[0] * power * square1
    return block


def _seeds(a: int, d: int, seq: Callable[[int], int]) -> tuple[int, ...]:
    # (W_a, W_{a+1}, F_{d-1}, F_d, -(-1)^d, L_d, v_0, v_1): v_k = W_{a+kd} follows v_{k+2} = L_d v_{k+1}
    # - (-1)^d v_k (Cayley-Hamilton on Q^d), from v_0 = W_a and v_1 = W_{a+d} = F_{d-1} W_a + F_d W_{a+1}.
    w, w1, f0, f1 = seq(a), seq(a + 1), fib(d - 1), fib(d)
    return w, w1, f0, f1, 1 if d & 1 else -1, 2 * f0 + f1, w, f0 * w + f1 * w1


def _check_walk(a: int, k: int, seeds: tuple[int, ...], v: int, v1: int) -> None:
    # the walked pair (v, v1) must be (W_{a+k}, W_{a+k+d}), read from the seeds by fast doubling
    w, w1, f0, f1, *_ = seeds
    g0, g1 = _fib_pair_at(k)
    last, after = g0 * w + g1 * w1, g1 * w + (g0 + g1) * w1
    if (v, v1) != (last, f0 * last + f1 * after):
        raise RecurrenceError(f"walked W disagrees with W_{a + k}")


# The row (W_{a+kd}^m for k < _HORNER) of a short sum, read only when m (|a| + 15|d|) <= 3000, so a value has
# at most about 2,100 bits (the full default grid reads up to 1,722) and 1,024 rows hold at most about 5 MB.
@lru_cache(maxsize=1024)
def _power_row(a: int, d: int, m: int, seq: Callable[[int], int]) -> tuple[int, ...]:
    seeds = _seeds(a, d, seq)
    *_, e0, e1, v, v1 = seeds
    row = []
    for _ in range(_HORNER):
        row.append(v**m)
        v, v1 = v1, e0 * v + e1 * v1
    _check_walk(a, _HORNER * d, seeds, v, v1)
    return tuple(row)


# The weights (C(n,k) x^(n-k) z^k for k <= n) of a short sum, read only when |x|, |z| < _SHORT = 2^128, so a
# weight has at most 15 * 128 + 13 = 1,933 bits and 1,024 rows hold at most about 5 MB.  The full default
# grid reads it 990,990 times with 11,253 misses (3,588 distinct keys), and its weights have at most 300 bits.
# Past the bound a repeated x is rare, and Horner's rule beats building the weights afresh: at n = 15,
# 5.6 us against 17 us with a 129-bit x, and 0.40 ms against 0.93 ms with a 1,994-bit x (`tools/oracle_table.py`).
_SHORT = 1 << 128


@lru_cache(maxsize=1024)
def _weights(n: int, x: int, z: int) -> tuple[int, ...]:
    return tuple(c * x ** (n - k) * z**k for k, c in enumerate(_ROWS[n]))


_MEMOS = (fib, lucas, _fib_pair, _power_row, _weights)


def _integer_sum(
    n: int, x: int, z: int, j: int, r: int, s: int, m: int, seq: Callable[[int], int]
) -> int:
    # The terms t_k v_k^m with t_k = C(n,k) x^(n-k) z^k and v_k = W_{a+kd}, a = js, d = jr.
    if m == 0:
        j = 0  # every W^0 is 1, so the constant W_0 stands in for W
    if x == 0:
        # only k = n survives, since 0^0 = 1
        return z**n * seq(j * (r * n + s)) ** m
    a, d = j * s, j * r
    if n < _HORNER and m * (abs(a) + 15 * abs(d)) <= 3000:
        row = _power_row(a, d, m, seq)
        if abs(x) < _SHORT > abs(z):
            # one dot product of two memoized rows, in C
            return sum(map(mul, _weights(n, x, z), row))
        # Horner's rule in x, as building the long weights afresh would cost more
        total, zk = 0, 1
        for c, u in zip(_ROWS[n], row):
            total = total * x + c * zk * u
            zk *= z
        return total
    seeds = _seeds(a, d, seq)
    *_, e0, e1, v, v1 = seeds
    table = None
    total, t = 0, x**n
    for lo in range(0, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        # the weights w_k = t_k Q / t_lo for Q = perm(hi, c) x^c, c = hi - lo, all small integers
        tail = [1]
        for k in range(hi, lo, -1):
            tail.append(tail[-1] * k * x)
        p, ws = 1, []
        for k in range(lo, hi):
            ws.append(p * tail[hi - k])
            p *= (n - k) * z
        if _expands(a + d * lo, d, m):
            if table is None:
                # built once, for no more rows than this block has: no later block is longer
                g0s, g1s = _basis(e0, e1)
                table = _monomials(g0s[: hi - lo], g1s[: hi - lo], m)
            block = _expanded_sum(ws, table, v, v1)
            c = hi - lo
            v, v1 = g0s[c] * v + g1s[c] * v1, g0s[c + 1] * v + g1s[c + 1] * v1
        else:
            block = 0
            for wk in ws:
                block += wk * v**m
                v, v1 = v1, e0 * v + e1 * v1
        q = tail[-1]
        total += t * block // q
        t = t * p // q
    _check_walk(a, (n + 1) * d, seeds, v, v1)
    return total
