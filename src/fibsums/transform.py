"""Power reduction: one engine, on integer pairs.

The power-reduction lemma: sum_k g_k z^(f_k) W_{j f_k}^m equals
sum_{i=0..m} (-1)^i C(m,i) h(p_i) / sqrt5^m for W = F (for L unsigned and
without sqrt5), with the kernel h(w) = sum_k g_k w^(f_k) and the lemma points
p_i = beta^(ij) alpha^((m-i)j) z = (-1)^(ij) alpha^((m-2i)j) z.
`reduce_power` is that one loop and `kernel_eval` its one evaluator, for
either kernel: both answer `terms`, and a `BinomialKernel` at a nonzero point
is evaluated in closed form as h(w) = w^s (x + z w^r)^n.  `binomial_rhs` runs
it at z = 1, where the points are units of Z[alpha]: with x, z scaled to
integers by their common denominator d, every contribution is an integer pair
of `quadfield` arithmetic, and the sum is divided by d^n once.  Results
follow `sequences.as_exact`: an int when integral, a Fraction otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadfield import SQRT5, QuadNum, alpha_pow, mul, power
from .sequences import SequenceKind, as_exact, binomial


class IrrationalResultError(ArithmeticError):
    """A value that must rationalize did not.

    This signals an internal inconsistency (an implementation bug), never
    invalid input: the algebra guarantees the alpha-part cancels.
    """


@dataclass(frozen=True)
class Kernel:
    """Finite kernel h(z) = sum of g * z^f over (g, f) terms.

    Coefficients are exact rationals (ints allowed), exponents are integers.
    """

    terms: tuple[tuple[int | Fraction, int], ...]


@dataclass(frozen=True)
class BinomialKernel:
    """h(w) = w^s (x + z w^r)^n, the kernel of sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m."""

    n: int
    x: int | Fraction
    z: int | Fraction
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"BinomialKernel requires n >= 0, got n={self.n}")

    @property
    def terms(self) -> tuple[tuple[int | Fraction, int], ...]:
        """The expansion: coefficients C(n,k) x^(n-k) z^k at exponents rk+s."""
        n, x, z, r, s = self.n, self.x, self.z, self.r, self.s
        return tuple((binomial(n, k) * x ** (n - k) * z**k, r * k + s) for k in range(n + 1))


def rationalize_root5(q: tuple, m: int) -> int | Fraction:
    """q / sqrt5^m as an exact rational, for a pair q: an int when integral.

    For odd m the value is multiplied by sqrt5 first, then the rational part
    is divided by 5^ceil(m/2); the alpha-part must vanish at that point.
    """
    u, v = mul(q, SQRT5) if m % 2 else q
    if v != 0:
        raise IrrationalResultError(f"non-rational after sqrt5 rationalization: {u} + {v}*alpha")
    return as_exact(Fraction(u, 5 ** ((m + 1) // 2)))


def kernel_eval(h: Kernel | BinomialKernel, point: tuple) -> QuadNum:
    """h(point) exactly, for a point given as a pair (a QuadNum or (u, v)).

    Powers follow 0^0 = 1, so at the zero point only f = 0 terms survive, and
    a negative exponent there raises NonInvertibleError.
    """
    # the closed form would invert a zero point for r < 0 even when every rk+s >= 0
    if isinstance(h, BinomialKernel) and any(point):
        wu, wv = power(point, h.r)
        return QuadNum._make(mul(power(point, h.s), power((h.x + h.z * wu, h.z * wv), h.n)))
    u = v = 0
    for g, f in h.terms:
        pu, pv = power(point, f)
        u += g * pu
        v += g * pv
    return QuadNum._make((u, v))


def _lemma_points(j: int, m: int, z: int | Fraction) -> list[tuple]:
    # The points (-1)^(ij) alpha^((m-2i)j) z for i = 0..m, as pairs.
    return [mul(alpha_pow((m - 2 * i) * j), (-z if i * j % 2 else z, 0)) for i in range(m + 1)]


def reduce_power(h: Kernel | BinomialKernel, j: int, m: int, z: int | Fraction, kind: SequenceKind) -> int | Fraction:
    """sum of g_k z^(f_k) W_{j f_k}^m over h's terms, W = F or L per `kind`.

    For F it is (1/sqrt5^m) sum_{i=0..m} (-1)^i C(m,i) h(beta^(ij) alpha^((m-i)j) z),
    rationalized; for L the same sum unsigned and without 1/sqrt5^m.  Kernels
    with negative exponents need z != 0.
    """
    if m < 0:
        raise ValueError(f"power reduction requires m >= 0, got m={m}")
    if z == 0:
        # Only f = 0 terms survive at z = 0; W_0 is 0 (F) or 2 (L).
        h0 = sum(Fraction(g) for g, f in h.terms if f == 0)
        w0 = 0 if kind is SequenceKind.FIB else 2
        return as_exact(h0 * w0**m)
    is_fib = kind is SequenceKind.FIB
    u = v = 0
    for i, point in enumerate(_lemma_points(j, m, z)):
        c = -binomial(m, i) if is_fib and i % 2 else binomial(m, i)
        hu, hv = kernel_eval(h, point)
        u += c * hu
        v += c * hv
    return rationalize_root5((u, v), m if is_fib else 0)


def binomial_rhs(bk: BinomialKernel, j: int, m: int, kind: SequenceKind) -> int | Fraction:
    """Closed form of sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m: `reduce_power` at z = 1 over bk.

    The contract, enforced by the test suite, is exact equality with direct_sum.
    """
    d = math.lcm(bk.x.denominator, bk.z.denominator)  # a float weight raises AttributeError
    if d == 1:
        return reduce_power(bk, j, m, 1, kind)
    scaled = BinomialKernel(bk.n, int(bk.x * d), int(bk.z * d), bk.r, bk.s)
    return as_exact(Fraction(reduce_power(scaled, j, m, 1, kind), d**bk.n))
