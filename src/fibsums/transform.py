"""Power-reduction engines.

`reduce_F`/`reduce_L` rewrite a weighted sum of m-th powers of Fibonacci or
Lucas values as a signed binomial combination of one kernel function h
evaluated at points beta^(ij) * alpha^((m-i)j) * z in Q(alpha), then
rationalize.  `binomial_rhs` is the specialization to the binomial kernel
h(z) = z^s (x + z^r)^n, which covers every weighted binomial power sum
C(n,k) x^(n-k) z^k W_{j(rk+s)}^m and is the engine behind the whole
identity catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .quadfield import SQRT5, ZERO, QuadNum, alpha_pow
from .sequences import SequenceKind, as_exact, binomial


class IrrationalResultError(ArithmeticError):
    """A value that must rationalize did not.

    This signals an internal inconsistency (an implementation bug), never
    invalid input: the algebra guarantees the alpha-part cancels.
    """


class NonInvertiblePointError(ZeroDivisionError):
    """A kernel with negative exponents was evaluated at a non-invertible point."""


@dataclass(frozen=True)
class Kernel:
    """Finite kernel h(z) = sum of g * z^f over (g, f) terms.

    Coefficients are exact rationals (ints allowed), exponents are integers.
    """

    terms: tuple[tuple[int | Fraction, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int | Fraction, int]]) -> Kernel:
        return cls(tuple((g, int(f)) for g, f in pairs))


@dataclass(frozen=True)
class BinomialKernel:
    """h(z) = z^s (x + z^r)^n together with the weight z it is summed at."""

    n: int
    x: int | Fraction
    z: int | Fraction
    r: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"BinomialKernel requires n >= 0, got n={self.n}")

    def expand(self) -> Kernel:
        """The explicit term list: coefficients C(n,k) x^(n-k), exponents rk+s."""
        n, x, r, s = self.n, self.x, self.r, self.s
        return Kernel(tuple((binomial(n, k) * x ** (n - k), r * k + s) for k in range(n + 1)))


def rationalize_root5(q: QuadNum, m: int) -> Fraction:
    """q / sqrt5^m as an exact rational.

    For odd m the value is multiplied by sqrt5 first, then the rational part
    is divided by 5^ceil(m/2); the alpha-part must vanish at that point.
    """
    if m % 2:
        q = q * SQRT5
    if q.v != 0:
        raise IrrationalResultError(f"non-rational after sqrt5 rationalization: {q}")
    return Fraction(q.u, 5 ** ((m + 1) // 2))


def kernel_eval(h: Kernel, point: QuadNum) -> QuadNum:
    """sum of g * point^f over the kernel terms, exactly.

    A zero point contributes 1 to f = 0 terms (0^0 = 1) and 0 to f > 0
    terms; a negative exponent at a zero point is an error.
    """
    acc = ZERO
    if point == ZERO:
        for g, f in h.terms:
            if f < 0:
                raise NonInvertiblePointError(
                    "kernel has a negative exponent but the evaluation point is zero"
                )
            if f == 0:
                acc = acc + QuadNum(g, 0)
        return acc
    for g, f in h.terms:
        acc = acc + point**f * g
    return acc


def _lemma_points(j: int, m: int, z: int | Fraction) -> list[QuadNum]:
    # Evaluation points beta^(ij) alpha^((m-i)j) z for i = 0..m.
    return [alpha_pow(i * j).conj() * alpha_pow((m - i) * j) * z for i in range(m + 1)]


def _reduce(h: Kernel, j: int, m: int, z: int | Fraction, kind: SequenceKind) -> Fraction:
    if m < 0:
        raise ValueError(f"power reduction requires m >= 0, got m={m}")
    if z == 0:
        # Only f = 0 terms survive at z = 0; W_0 is 0 (F) or 2 (L).
        h0 = sum((Fraction(g) for g, f in h.terms if f == 0), Fraction(0))
        w0 = 0 if kind is SequenceKind.FIB else 2
        return h0 * w0**m
    acc = ZERO
    for i, pt in enumerate(_lemma_points(j, m, z)):
        term = kernel_eval(h, pt) * binomial(m, i)
        if kind is SequenceKind.FIB and i % 2:
            term = -term
        acc = acc + term
    return rationalize_root5(acc, m if kind is SequenceKind.FIB else 0)


def reduce_F(h: Kernel, j: int, m: int, z: int | Fraction) -> Fraction:
    """sum of g_k z^(f_k) F_{j f_k}^m via the alternating kernel combination.

    Equals (1/sqrt5^m) * sum_{i=0..m} (-1)^i C(m,i) h(beta^(ij) alpha^((m-i)j) z),
    rationalized; kernels with negative exponents need z != 0.
    """
    return _reduce(h, j, m, z, SequenceKind.FIB)


def reduce_L(h: Kernel, j: int, m: int, z: int | Fraction) -> Fraction:
    """sum of g_k z^(f_k) L_{j f_k}^m; as reduce_F but unsigned and without 1/sqrt5^m."""
    return _reduce(h, j, m, z, SequenceKind.LUCAS)


def binomial_rhs(bk: BinomialKernel, j: int, m: int, kind: SequenceKind) -> Fraction:
    """Closed form of sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m, evaluated in Q(alpha).

    Accumulates sum_{i=0..m} (+/-1) C(m,i) alpha^((m-2i)js) (x + (-1)^(ijr)
    alpha^((m-2i)jr) z)^n with the sign exponent i(js+1) for F and ijs for L,
    then rationalizes (dividing by sqrt5^m in the F case).  The contract,
    enforced by the test suite, is exact equality with direct_sum.
    """
    if m < 0:
        raise ValueError(f"binomial_rhs requires m >= 0, got m={m}")
    n, r, s = bk.n, bk.r, bk.s
    x = as_exact(bk.x)
    z = as_exact(bk.z)
    xq = QuadNum(x, 0)
    is_fib = kind is SequenceKind.FIB
    acc = ZERO
    for i in range(m + 1):
        t = m - 2 * i
        inner = alpha_pow(t * j * r) * z
        if (i * j * r) % 2:
            inner = -inner
        base = xq + inner
        term = alpha_pow(t * j * s) * base**n * binomial(m, i)
        sign_exp = i * (j * s + 1) if is_fib else i * j * s
        if sign_exp % 2:
            term = -term
        acc = acc + term
    return rationalize_root5(acc, m if is_fib else 0)
