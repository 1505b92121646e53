"""Power reduction: one engine, on integer pairs.

The power-reduction lemma: sum_k g_k z^(f_k) W_{j f_k}^m equals
sum_{i=0..m} (-1)^i C(m,i) h(p_i) / sqrt5^m for W = F (for L unsigned and
without sqrt5), with the kernel h(w) = sum_k g_k w^(f_k) and the lemma points
p_i = beta^(ij) alpha^((m-i)j) z = (-1)^(ij) alpha^((m-2i)j) z.
`reduce_power` is that one loop, for either kernel: both answer `terms`, and
a `BinomialKernel` at a nonzero point is evaluated in closed form as
h(w) = w^s (x + z w^r)^n, by one helper that `kernel_eval` (at any point) and
the loop share.  A lemma point is c alpha^e with c = +-z, so the loop reads
p^r and p^s from alpha's powers, the Fibonacci pairs alpha^k = F_{k-1} +
F_k alpha (`sequences._fib_pair_at`), and (x + z p^r)^n is the one power of
a pair per point.  Its base does not depend on s and is the same for F and
L, so a short integer base reads it from `quadfield.power_memo`; every point
is still evaluated on its own.  `binomial_rhs` runs it at z = 1, where the
points are units of Z[alpha]: with x, z scaled to integers by their common
denominator d, every contribution is an integer pair of `quadfield`
arithmetic, and the sum is divided by d^n once (`sequences.over_power`).
Results follow `sequences.as_exact`: an int when integral, a Fraction
otherwise.  Both kernels are checked namedtuples, as `QuadNum` is: a
`BinomialKernel` refuses n < 0 (`_make` and `_replace` skip that check).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .quadfield import POWER_MEMO_BITS, SQRT5, QuadNum, mul, power, power_memo
from .sequences import _FIB, _LUCAS, SequenceKind, _fib_pair_at, as_exact, binomial, over_power


class IrrationalResultError(ArithmeticError):
    """A value that must rationalize did not.

    This signals an internal inconsistency (an implementation bug), never
    invalid input: the algebra guarantees the alpha-part cancels.
    """


class Kernel(namedtuple("Kernel", "terms")):
    """Finite kernel h(z) = sum of g * z^f over (g, f) terms.

    Coefficients are exact rationals (ints allowed), exponents are integers.
    """

    __slots__ = ()


class BinomialKernel(namedtuple("BinomialKernel", "n x z r s")):
    """h(w) = w^s (x + z w^r)^n, the kernel of sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m."""

    __slots__ = ()

    def __new__(cls, n: int, x: int | Fraction, z: int | Fraction, r: int, s: int) -> BinomialKernel:
        if n < 0:
            raise ValueError(f"BinomialKernel requires n >= 0, got n={n}")
        return cls._make((n, x, z, r, s))

    @property
    def terms(self) -> tuple[tuple[int | Fraction, int], ...]:
        """The expansion: coefficients C(n,k) x^(n-k) z^k at exponents rk+s."""
        n, x, z, r, s = self
        return tuple((binomial(n, k) * x ** (n - k) * z**k, r * k + s) for k in range(n + 1))


def rationalize_root5(q: tuple, m: int) -> int | Fraction:
    """q / sqrt5^m as an exact rational, for a pair q: an int when integral.

    For odd m the value is multiplied by sqrt5 first, then the rational part
    is divided by 5^ceil(m/2); the alpha-part must vanish at that point.  An
    integral quotient is read from `divmod`, with no Fraction built.
    """
    u, v = mul(q, SQRT5) if m % 2 else q
    if v != 0:
        raise IrrationalResultError(f"non-rational after sqrt5 rationalization: {u} + {v}*alpha")
    den = 5 ** ((m + 1) // 2)
    quotient, rem = divmod(u, den)
    return Fraction(u, den) if rem else quotient


def _binomial_at(h: BinomialKernel, ps: tuple, pr: tuple) -> tuple:
    # h(p) = p^s (x + z p^r)^n from the point's powers p^s and p^r: the one closed form of a BinomialKernel.
    # A short integer base's power comes from `power_memo`: the F and L sides of a pair, and every s, share it.
    pu, pv = pr
    n, z = h.n, h.z
    u, v = h.x + z * pu, z * pv
    if type(u) is int and type(v) is int and abs(n) * (abs(u) + abs(v)).bit_length() <= POWER_MEMO_BITS:
        return mul(ps, power_memo((u, v), n))
    return mul(ps, power((u, v), n))


def kernel_eval(h: Kernel | BinomialKernel, point: tuple) -> QuadNum:
    """h(point) exactly, for a point given as a pair (a QuadNum or (u, v)).

    Powers follow 0^0 = 1, so at the zero point only f = 0 terms survive, and
    a negative exponent there raises NonInvertibleError.
    """
    # the closed form would invert a zero point for r < 0 even when every rk+s >= 0
    if isinstance(h, BinomialKernel) and any(point):
        return QuadNum(*_binomial_at(h, power(point, h.s), power(point, h.r)))
    u = v = 0
    for g, f in h.terms:
        pu, pv = power(point, f)
        u += g * pu
        v += g * pv
    return QuadNum(u, v)


def _rational_pow(q: int | Fraction, k: int) -> int | Fraction:
    # q^k for a nonzero rational q, exactly (a negative power of an int would be a float); q = +-1 at z = 1.
    # `Fraction(1) / q` keeps a float q a float, for `reduce_power` to refuse, where `Fraction(1, q)` raises.
    if q == 1 or q == -1:
        return q if k & 1 else 1
    return q**k if k >= 0 else (Fraction(1) / q) ** -k


# alpha^k = F_{k-1} + F_k alpha, so alpha's powers are the Fibonacci pairs that fib, lucas and the
# oracle's safeguard read, through the one bounded fast-doubling memo: an index the oracle or an
# earlier point reached, however large, is one lookup.  `PYTHONPATH=src python3 tools/engine_table.py`
# times the engine against taking the point's powers by `power`, cold and warm.
def _lemma_value(h: Kernel | BinomialKernel, c: int | Fraction, e: int) -> tuple:
    """h(c alpha^e) as a pair, for a nonzero rational c: the value at one lemma point.

    A BinomialKernel takes p^r = c^r alpha^(er) and p^s = c^s alpha^(es) as
    Fibonacci pairs, so (x + z p^r)^n is the only power of a pair left to take.
    """
    if not isinstance(h, BinomialKernel):
        u, v = _fib_pair_at(e)
        return kernel_eval(h, (c * u, c * v))
    cr, cs = _rational_pow(c, h.r), _rational_pow(c, h.s)
    ru, rv = _fib_pair_at(e * h.r)
    su, sv = _fib_pair_at(e * h.s)
    return _binomial_at(h, (cs * su, cs * sv), (cr * ru, cr * rv))


def reduce_power(h: Kernel | BinomialKernel, j: int, m: int, z: int | Fraction, kind: SequenceKind) -> int | Fraction:
    """sum of g_k z^(f_k) W_{j f_k}^m over h's terms, W = F or L per `kind`.

    For F it is (1/sqrt5^m) sum_{i=0..m} (-1)^i C(m,i) h(beta^(ij) alpha^((m-i)j) z),
    rationalized; for L the same sum unsigned and without 1/sqrt5^m.  At
    z = 0 the exponent-0 terms are kept and every other term is dropped,
    one with a negative exponent included.  A float z, weight or coefficient
    raises TypeError, and a `kind` that is not a `SequenceKind` member ValueError.
    """
    if m < 0:
        raise ValueError(f"power reduction requires m >= 0, got m={m}")
    is_fib = kind is _FIB
    if not is_fib and kind is not _LUCAS:
        raise ValueError(f"power reduction requires a SequenceKind, got kind={kind!r}")
    if z == 0:
        # Only f = 0 terms survive at z = 0; W_0 is 0 (F) or 2 (L).  The sum starts at z, which
        # adds nothing but makes it a float for a float z, as a float coefficient does.
        h0 = sum((g for g, f in h.terms if f == 0), z)
        if not isinstance(h0, (int, Fraction)):
            raise _inexact(h, z)
        return as_exact(h0 * (0 if is_fib else 2) ** m)
    u, v = z * 0, 0  # z's zero, so that a float z makes u a float, as a float weight or coefficient does
    # Every point is evaluated on its own.  h(p_(m-i)) = conj h(p_i) would halve the work, but
    # the alpha part would then cancel by construction, and IrrationalResultError, which
    # catches a wrong contribution at any single point, could never fire.
    for i in range(m + 1):
        c = -math.comb(m, i) if is_fib and i % 2 else math.comb(m, i)
        hu, hv = _lemma_value(h, -z if i * j % 2 else z, (m - 2 * i) * j)
        u += c * hu
        v += c * hv
    if not isinstance(u, (int, Fraction)):
        raise _inexact(h, z)
    return rationalize_root5((u, v), m if is_fib else 0)


def _inexact(h: Kernel | BinomialKernel, z: object) -> TypeError:
    return TypeError(f"power reduction takes int or Fraction inputs, got z={z!r} and {h!r}")


def binomial_rhs(bk: BinomialKernel, j: int, m: int, kind: SequenceKind) -> int | Fraction:
    """Closed form of sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m: `reduce_power` at z = 1 over bk.

    The contract, enforced by the test suite, is exact equality with direct_sum.
    A float or a Decimal weight raises TypeError.
    """
    try:
        d = math.lcm(bk.x.denominator, bk.z.denominator)
    except AttributeError:  # a float or a Decimal has no denominator
        raise TypeError(f"binomial_rhs takes int or Fraction weights, got {bk!r}") from None
    if d == 1:
        return reduce_power(bk, j, m, 1, kind)
    scaled = bk._replace(x=int(bk.x * d), z=int(bk.z * d))
    return over_power(reduce_power(scaled, j, m, 1, kind), d, bk.n)
