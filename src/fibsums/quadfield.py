"""Exact arithmetic in Q(alpha), alpha the golden ratio, in the basis (1, alpha).

An element is u + v*alpha with exact rational coordinates; the multiplication
law is fixed by alpha^2 = alpha + 1.  The conjugate beta = 1 - alpha and
sqrt5 = 2*alpha - 1 are derived constants, not independent symbols.  Powers
of alpha have integer coordinates (F_{n-1}, F_n), so integer inputs stay in
Z[alpha]; coordinates may be ints or Fractions and mix freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class NonInvertibleError(ZeroDivisionError):
    """Inversion of an element with zero norm."""


@dataclass(frozen=True, slots=True)
class QuadNum:
    u: int | Fraction
    v: int | Fraction

    def __post_init__(self) -> None:
        # exactness by construction: no floats or other inexact types
        if not isinstance(self.u, (int, Fraction)) or not isinstance(self.v, (int, Fraction)):
            raise TypeError(f"QuadNum coordinates must be int or Fraction, got {self!r}")

    def __add__(self, other: QuadNum) -> QuadNum:
        if isinstance(other, QuadNum):
            return QuadNum(self.u + other.u, self.v + other.v)
        return NotImplemented

    def __sub__(self, other: QuadNum) -> QuadNum:
        if isinstance(other, QuadNum):
            return QuadNum(self.u - other.u, self.v - other.v)
        return NotImplemented

    def __neg__(self) -> QuadNum:
        return QuadNum(-self.u, -self.v)

    def __mul__(self, other: QuadNum | int | Fraction) -> QuadNum:
        if isinstance(other, QuadNum):
            u1, v1 = self.u, self.v
            u2, v2 = other.u, other.v
            return QuadNum(u1 * u2 + v1 * v2, u1 * v2 + u2 * v1 + v1 * v2)
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.u * other, self.v * other)
        return NotImplemented

    def __rmul__(self, other: int | Fraction) -> QuadNum:
        if isinstance(other, (int, Fraction)):
            return QuadNum(self.u * other, self.v * other)
        return NotImplemented

    def __pow__(self, n: int) -> QuadNum:
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> QuadNum:
        """The field automorphism swapping alpha and beta; fixes rationals."""
        return QuadNum(self.u + self.v, -self.v)

    def norm(self) -> int | Fraction:
        # self * conj(self) is rational: u^2 + uv - v^2.
        return self.u * (self.u + self.v) - self.v * self.v

    def inv(self) -> QuadNum:
        nrm = self.norm()
        if nrm == 0:
            raise NonInvertibleError(f"{self!r} has zero norm")
        c = self.conj()
        nf = Fraction(nrm)
        return QuadNum(Fraction(c.u) / nf, Fraction(c.v) / nf)

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def __str__(self) -> str:
        return f"{self.u} + {self.v}*alpha"


ZERO = QuadNum(0, 0)
ONE = QuadNum(1, 0)
ALPHA = QuadNum(0, 1)
BETA = QuadNum(1, -1)  # 1 - alpha
SQRT5 = QuadNum(-1, 2)  # 2*alpha - 1
_ALPHA_INV = QuadNum(-1, 1)  # alpha - 1 = -beta; alpha is a unit of norm -1


@lru_cache(maxsize=256)  # the full default grid needs 25 entries
def alpha_pow(n: int) -> QuadNum:
    """alpha^n for any integer n, by binary exponentiation.

    Negative powers go through the inverse unit alpha^-1 = alpha - 1, so the
    coordinates are the integers (F_{n-1}, F_n) for every n.
    """
    if n < 0:
        return _ALPHA_INV ** (-n)
    return ALPHA**n


def beta_pow(n: int) -> QuadNum:
    """beta^n = conj(alpha^n)."""
    return alpha_pow(n).conj()


def root5_parts(a: QuadNum) -> tuple[Fraction, Fraction]:
    """Decompose a = p + q*sqrt5 into exact rational (p, q): p = u + v/2, q = v/2."""
    q = Fraction(a.v, 2)
    return Fraction(a.u) + q, q


def clear_caches() -> None:
    """Drop memoized alpha powers.  Used by cold-start benchmarks."""
    alpha_pow.cache_clear()
