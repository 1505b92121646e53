"""Exact arithmetic in Q(alpha), alpha the golden ratio, in the basis (1, alpha).

u + v*alpha is the pair (u, v) of ints or Fractions, and alpha^2 = alpha + 1.
The arithmetic is `mul` (three products of coordinates), `power` and
`inverse` on plain pairs: integer pairs stay in Z[alpha], and so do the
inverses of its units (norm +/-1), such as every power of alpha, whose
coordinates are (F_{n-1}, F_n).  `QuadNum`, the public element type, is a
pair with the field operators built on them.  beta = 1 - alpha and
sqrt5 = 2*alpha - 1 are derived constants, and beta^n is
`alpha_pow(n).conj()`, from a memo of binary powers.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache


class NonInvertibleError(ZeroDivisionError):
    """Inversion of an element with zero norm."""


def mul(a: tuple, b: tuple) -> tuple:
    """(u1 + v1*alpha)(u2 + v2*alpha) as a pair, in three products.

    The pair is (u1 u2 + v1 v2, u1 v2 + u2 v1 + v1 v2), and its alpha part is
    (u1 + v1)(u2 + v2) - u1 u2 (Karatsuba's trick).
    """
    u1, v1 = a
    u2, v2 = b
    uu = u1 * u2
    return uu + v1 * v2, (u1 + v1) * (u2 + v2) - uu


def inverse(a: tuple) -> tuple:
    """conj(a) / norm(a); a unit of Z[alpha] keeps integer coordinates."""
    u, v = a
    nrm = u * (u + v) - v * v
    if nrm == 0:
        raise NonInvertibleError(f"{a!r} has zero norm")
    if nrm == 1 or nrm == -1:
        return (u + v) * nrm, -v * nrm
    return Fraction(u + v) / nrm, Fraction(-v) / nrm


def power(a: tuple, n: int) -> tuple:
    """a^n for any integer n by binary exponentiation, with 0^0 = 1.

    The bits run from the top, so each product that is not a square is by a
    itself: a shift of the coordinates when a = alpha, and small whenever a is.
    """
    if n < 0:
        a, n = inverse(a), -n
    if not n:
        return 1, 0
    out = a
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


class QuadNum(namedtuple("QuadNum", "u v")):
    """u + v*alpha: an exact pair with the field operators."""

    __slots__ = ()

    def __new__(cls, u: int | Fraction, v: int | Fraction) -> QuadNum:
        # exactness by construction: no floats or other inexact types
        if not isinstance(u, (int, Fraction)) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"QuadNum coordinates must be int or Fraction, got QuadNum(u={u!r}, v={v!r})")
        return cls._make((u, v))

    # Operands may be any pair; a tuple's own + would concatenate.  A pair's
    # coordinates are unchecked, so its results go through the checked constructor.
    def __add__(self, other: tuple) -> QuadNum:
        if isinstance(other, tuple):
            return QuadNum(self.u + other[0], self.v + other[1])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: tuple) -> QuadNum:
        if isinstance(other, tuple):
            return QuadNum(self.u - other[0], self.v - other[1])
        return NotImplemented

    def __neg__(self) -> QuadNum:
        return self._make((-self.u, -self.v))

    def __mul__(self, other: tuple | int | Fraction) -> QuadNum:
        if isinstance(other, tuple):
            return QuadNum(*mul(self, other))
        if isinstance(other, (int, Fraction)):
            return self._make((self.u * other, self.v * other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadNum:
        return self._make(power(self, n))

    def conj(self) -> QuadNum:
        """The field automorphism swapping alpha and beta; fixes rationals."""
        return self._make((self.u + self.v, -self.v))

    def inv(self) -> QuadNum:
        return self._make(inverse(self))

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


@lru_cache(maxsize=256)
def alpha_pow(n: int) -> QuadNum:
    """alpha^n for any integer n; alpha^-1 = alpha - 1, so the coordinates are (F_{n-1}, F_n)."""
    return QuadNum._make(power(ALPHA, n))


def clear_caches() -> None:
    """Empty the memo `alpha_pow`.  Used by cold-start benchmarks."""
    alpha_pow.cache_clear()
