"""The identity catalog: one exact evaluator per closed form, paired with its
embedding into the direct-summation oracle.

Every entry binds an identity tag to (a) the parameter slots it reads, (b) the
direct_sum call computing its left side term by term, and (c) an exact
evaluator of its right side.  `eval_pair` runs both and reports exact
equality, which is what the grid verifier drives.

Closed forms are computed with integer Fibonacci/Lucas values only, apart
from F1/L1 and the quadratic base forms T1, which bind the Q(alpha) engine
`transform.binomial_rhs` directly.  `_times_5pow` is the one division by a
power of 5 and the one integrality check; a 5^k with k known to be
non-negative (E7/E8, E11/E12, Q15/Q16's tail) is a plain product.  Integer
powers follow the 0^0 = 1 convention.

The even- and odd-power theorems are one closed form, `_power_rhs`, of
sum_k (+/-1)^k C(n,k) W_{a+dk}^B with B*d even: EVEN has B = 2m, d = jr and
ODD has B = 2m+1, d = 2jr.  Its parity branch is the pair (Lucas first
factor, Fibonacci second factor), set by the parities of B*d/2, the sign, B,
n and the kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from . import transform
from .sequences import SequenceKind, binomial, direct_sum, fib, lucas


class IntegralityError(ArithmeticError):
    """A closed form with integer weights produced a non-integer.

    The 5-power prefactors always cancel for integer-weighted sums; a
    failure indicates an implementation bug, never bad input.
    """


class InapplicableParamsError(ValueError):
    """Parameters outside an identity's stated domain."""


class IdentityId(Enum):
    F1 = "F1"
    L1 = "L1"
    E5 = "E5"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"
    E9 = "E9"
    E10 = "E10"
    E11 = "E11"
    E12 = "E12"
    T1_F2RHS = "T1_F2RHS"
    T1_L2RHS = "T1_L2RHS"
    Q13 = "Q13"
    Q14 = "Q14"
    Q15 = "Q15"
    Q16 = "Q16"
    C18 = "C18"
    C19 = "C19"
    C20 = "C20"
    C21 = "C21"
    C22 = "C22"
    C23 = "C23"
    EVEN_F = "EVEN_F"
    EVEN_L = "EVEN_L"
    ALT_EVEN_F = "ALT_EVEN_F"
    ALT_EVEN_L = "ALT_EVEN_L"
    ODD_F = "ODD_F"
    ODD_L = "ODD_L"
    ALT_ODD_F = "ALT_ODD_F"
    ALT_ODD_L = "ALT_ODD_L"


@dataclass(frozen=True, slots=True)
class IdentityParams:
    """Parameter tuple for a catalog entry; unused slots keep their defaults."""

    n: int = 0
    j: int = 1
    r: int = 1
    s: int = 0
    p: int = 1
    m: int = 1


SLOT_ORDER = ("n", "j", "r", "s", "p", "m")


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


def _times_5pow(value: int, e: int) -> Fraction:
    """value * 5^e; the one integrality check, raising IntegralityError on a remainder."""
    if e >= 0:
        return Fraction(value * 5**e)
    q, rem = divmod(value, 5**-e)
    if rem:
        raise IntegralityError(f"expected an integer value, got {Fraction(value, 5**-e)}")
    return Fraction(q)


# ---------------------------------------------------------------------------
# Closed-form evaluators


def special_linear_rhs(id: IdentityId, params: IdentityParams) -> Fraction:
    """Closed forms of the specialized linear identities E5..E12."""
    n, j, r, s, p = params.n, params.j, params.r, params.s, params.p
    if n < 0:
        raise InapplicableParamsError("n must be non-negative")
    jr, js = j * r, j * s
    if id is IdentityId.E5:
        out = _sgn(jr * n) * lucas(jr) ** n * fib(j * (r * n + s))
    elif id is IdentityId.E6:
        out = _sgn(jr * n) * lucas(jr) ** n * lucas(j * (r * n + s))
    elif id is IdentityId.E7:
        if n % 2 == 0:
            out = 5 ** (n // 2) * fib(jr) ** n * fib(j * (r * n + s))
        else:
            out = _sgn(jr + 1) * 5 ** ((n - 1) // 2) * fib(jr) ** n * lucas(j * (r * n + s))
    elif id is IdentityId.E8:
        if n % 2 == 0:
            out = 5 ** (n // 2) * fib(jr) ** n * lucas(j * (r * n + s))
        else:
            out = _sgn(jr + 1) * 5 ** ((n + 1) // 2) * fib(jr) ** n * fib(j * (r * n + s))
    elif id is IdentityId.E9:
        out = _sgn(js + 1) * fib(jr) ** n * fib(p * n - js)
    elif id is IdentityId.E10:
        # Sign is (-1)^(js): the Lucas pairing alpha^(js) beta^(pn) +
        # beta^(js) alpha^(pn) = (-1)^(js) L_{pn-js} carries no extra flip.
        out = _sgn(js) * fib(jr) ** n * lucas(p * n - js)
    elif id is IdentityId.E11:
        if n % 2 == 0:
            out = _sgn(js + 1) * 5 ** (n // 2) * fib(jr) ** n * fib(p * n - js)
        else:
            out = _sgn(js + 1) * 5 ** ((n - 1) // 2) * fib(jr) ** n * lucas(p * n - js)
    elif id is IdentityId.E12:
        if n % 2 == 0:
            out = _sgn(js) * 5 ** (n // 2) * fib(jr) ** n * lucas(p * n - js)
        else:
            out = _sgn(js) * 5 ** ((n + 1) // 2) * fib(jr) ** n * fib(p * n - js)
    else:
        raise ValueError(f"special_linear_rhs only evaluates E5..E12, got {id}")
    return Fraction(out)


def quadratic_rhs(id: IdentityId, n: int, j: int, r: int, s: int, p: int) -> Fraction:
    """Closed forms of the squared-value identities Q13..Q16 (Q13/Q14 need p != 0)."""
    if id in (IdentityId.Q13, IdentityId.Q14) and p == 0:
        raise InapplicableParamsError("p must be nonzero")
    if n < 0:
        raise InapplicableParamsError("n must be non-negative")
    js = j * s
    f2 = fib(2 * j * r) ** n
    f1 = fib(j * r) ** n
    if id is IdentityId.Q13:
        return _times_5pow(f2 * lucas(p * n - 2 * js) - _sgn(js) * 2 * f1 * lucas(j * r + p) ** n, -1)
    if id is IdentityId.Q14:
        return Fraction(f2 * lucas(p * n - 2 * js) + _sgn(js) * 2 * f1 * lucas(j * r + p) ** n)
    if id in (IdentityId.Q15, IdentityId.Q16):
        # Both parities of n share one prefactor 5^e, e = ceil(n/2) (Q16) or
        # ceil(n/2) - 1 (Q15); the tail's 5^(n-1) or 5^n leaves 5^(n//2) inside.
        head = f2 * (fib(p * n - 2 * js) if n % 2 else lucas(p * n - 2 * js))
        tail = _sgn(js) * 5 ** (n // 2) * 2 * f1 * fib(j * r + p) ** n
        if id is IdentityId.Q15:
            return _times_5pow(head - tail, (n + 1) // 2 - 1)
        return _times_5pow(head + tail, (n + 1) // 2)
    raise ValueError(f"quadratic_rhs only evaluates Q13..Q16, got {id}")


def cubic_rhs(id: IdentityId, n: int, s: int) -> Fraction:
    """Closed forms of the cubed-value identities C18..C23."""
    if n < 0:
        raise InapplicableParamsError("n must be non-negative")
    if id is IdentityId.C18:
        return _times_5pow(2**n * fib(2 * n + 3 * s) + 3 * fib(n - s), -1)
    if id is IdentityId.C19:
        return Fraction(2**n * lucas(2 * n + 3 * s) + 3 * lucas(n - s))
    if id is IdentityId.C20:
        return _times_5pow(_sgn(n) * 2**n * fib(n + 3 * s) - _sgn(s) * 3 * fib(2 * n + s), -1)
    if id is IdentityId.C21:
        return Fraction(_sgn(n) * 2**n * lucas(n + 3 * s) + _sgn(s) * 3 * lucas(2 * n + s))
    if id is IdentityId.C22:
        if n % 2 == 0:
            return _times_5pow(fib(3 * n + 3 * s) - _sgn(s) * 3 * fib(s), n // 2 - 1)
        return _times_5pow(lucas(3 * n + 3 * s) + _sgn(s) * 3 * lucas(s), n // 2 - 1)
    if id is IdentityId.C23:
        if n % 2 == 0:
            return _times_5pow(lucas(3 * n + 3 * s) + _sgn(s) * 3 * lucas(s), n // 2)
        return _times_5pow(fib(3 * n + 3 * s) - _sgn(s) * 3 * fib(s), (n + 1) // 2)
    raise ValueError(f"cubic_rhs only evaluates C18..C23, got {id}")


def _power_rhs(
    n: int,
    a: int,
    d: int,
    big: int,
    alternating: bool,
    kind: SequenceKind,
) -> Fraction:
    """Closed form of sum_k (+/-1)^k C(n,k) W_{a+dk}^big, for big*d even.

    Expanding W^big by Binet pairs alpha^(tx) with beta^(tx), t = big - 2i,
    x = a + dk.  Summed over k, pair i < big/2 carries C(big,i) times
    (1 +/- (-1)^(id) alpha^(td))^n, which is alpha^(hn) times L_h^n or
    (sqrt5 F_h)^n with h = td/2: Lucas for every i when h_0 = big*d/2 is even
    under plus signs or odd under alternating ones.  The parities of big, n
    and the kind then fix whether the second factor is F or L, and the sqrt5
    powers collect into one 5^e.  An even `big` leaves the unpaired centre
    C(big, big/2) (1 +/- (-1)^(h_0))^n, 2^n or 0^n, kept exact so that its
    0^0 = 1 survives at n = 0.
    """
    is_fib = kind is SequenceKind.FIB
    fib_first = (big * d // 2) % 2 != alternating
    fib_second = (is_fib and big % 2 == 1) != (fib_first and n % 2 == 1)
    first = fib if fib_first else lucas
    second = fib if fib_second else lucas
    sign_e = a + d * n + is_fib
    total = 0
    for i in range((big + 1) // 2):
        t = big - 2 * i
        h = t * d // 2
        term = binomial(big, i) * first(h) ** n * second(h * n + t * a)
        total += -term if (sign_e * i) % 2 else term
    if big % 2 == 0:
        center = binomial(big, big // 2) * (0 if fib_first else 2) ** n
        total += -center if (sign_e * (big // 2)) % 2 else center
    if alternating and n % 2:
        total = -total
    return _times_5pow(total, (n * fib_first + fib_second - big * is_fib) // 2)


def even_power_rhs(
    n: int,
    j: int,
    r: int,
    s: int,
    m: int,
    alternating: bool,
    kind: SequenceKind,
) -> Fraction:
    """Closed form of sum_k (+/-1)^k C(n,k) W_{j(rk+s)}^(2m).

    The branch is selected by the parity of j*m*r and, inside a branch, of n.
    The central binomial term is kept in its exact (1 +/- (-1)^(jmr))^n form,
    so the degenerate-branch contribution that only survives at n = 0 (where
    0^0 = 1) is included and the identity holds on all of n >= 0.
    """
    if n < 0:
        raise InapplicableParamsError("n must be non-negative")
    if m < 0:
        raise InapplicableParamsError("m must be non-negative")
    return _power_rhs(n, j * s, j * r, 2 * m, alternating, kind)


def odd_power_rhs(
    n: int,
    j: int,
    r: int,
    s: int,
    m: int,
    alternating: bool,
    kind: SequenceKind,
) -> Fraction:
    """Closed form of sum_k (+/-1)^k C(n,k) W_{j(2rk+s)}^(2m+1).

    Note the index step of the sum is 2r.  The branch is selected by the
    parity of j*r and, inside a branch, of n.
    """
    if n < 0:
        raise InapplicableParamsError("n must be non-negative")
    if m < 0:
        raise InapplicableParamsError("m must be non-negative")
    return _power_rhs(n, j * s, 2 * j * r, 2 * m + 1, alternating, kind)


# ---------------------------------------------------------------------------
# Catalog


class EvalOutcome(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    match: bool


DirectSumArgs = tuple[int, int | Fraction, int | Fraction, int, int, int, int]


@dataclass(frozen=True)
class IdentityDescriptor:
    """Binds an identity tag to its domain, oracle embedding and closed form.

    `slots` lists the parameter names the identity reads; the grid verifier
    collapses the rest.  `anchor` is the stable, human-readable statement of
    the identity (part of the public naming contract used by reports).
    """

    id: IdentityId
    kind: SequenceKind
    slots: tuple[str, ...]
    anchor: str
    lhs_args: Callable[[IdentityParams], DirectSumArgs]
    rhs: Callable[[IdentityParams], Fraction]
    domain_error: Callable[[IdentityParams], str | None] = lambda params: None

    def applicable(self, params: IdentityParams) -> tuple[bool, str | None]:
        if params.n < 0:
            return False, "n must be non-negative"
        if "m" in self.slots and params.m < 0:
            return False, "m must be non-negative"
        reason = self.domain_error(params)
        if reason is not None:
            return False, reason
        return True, None

    def lhs(self, params: IdentityParams) -> Fraction:
        n, x, z, j, r, s, m = self.lhs_args(params)
        return direct_sum(n, x, z, j, r, s, m, self.kind)


def _nonzero_p(params: IdentityParams) -> str | None:
    if params.p == 0:
        return "p must be nonzero"
    return None


def _build_catalog() -> tuple[IdentityDescriptor, ...]:
    F, L = SequenceKind.FIB, SequenceKind.LUCAS
    nj = ("n", "j", "r", "s")
    njp = ("n", "j", "r", "s", "p")
    njm = ("n", "j", "r", "s", "m")
    entries = [
        IdentityDescriptor(
            IdentityId.F1, F, nj,
            "sum_k C(n,k) F[j(rk+s)] = (a^(js)(1+a^(jr))^n - b^(js)(1+b^(jr))^n)/sqrt5",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 1),
            lambda q: transform.binomial_rhs(
                transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 1, SequenceKind.FIB
            ),
        ),
        IdentityDescriptor(
            IdentityId.L1, L, nj,
            "sum_k C(n,k) L[j(rk+s)] = a^(js)(1+a^(jr))^n + b^(js)(1+b^(jr))^n",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 1),
            lambda q: transform.binomial_rhs(
                transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 1, SequenceKind.LUCAS
            ),
        ),
        IdentityDescriptor(
            IdentityId.E5, F, nj,
            "sum_k (-1)^(jrk) C(n,k) F[j(2rk+s)] = (-1)^(jrn) L[jr]^n F[j(rn+s)]",
            lambda q: (q.n, 1, _sgn(q.j * q.r), q.j, 2 * q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E5, q),
        ),
        IdentityDescriptor(
            IdentityId.E6, L, nj,
            "sum_k (-1)^(jrk) C(n,k) L[j(2rk+s)] = (-1)^(jrn) L[jr]^n L[j(rn+s)]",
            lambda q: (q.n, 1, _sgn(q.j * q.r), q.j, 2 * q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E6, q),
        ),
        IdentityDescriptor(
            IdentityId.E7, F, nj,
            "sum_k (-1)^((jr+1)k) C(n,k) F[j(2rk+s)] = 5^(n/2) F[jr]^n F[j(rn+s)]"
            " (n even) | (-1)^(jr+1) 5^((n-1)/2) F[jr]^n L[j(rn+s)] (n odd)",
            lambda q: (q.n, 1, _sgn(q.j * q.r + 1), q.j, 2 * q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E7, q),
        ),
        IdentityDescriptor(
            IdentityId.E8, L, nj,
            "sum_k (-1)^((jr+1)k) C(n,k) L[j(2rk+s)] = 5^(n/2) F[jr]^n L[j(rn+s)]"
            " (n even) | (-1)^(jr+1) 5^((n+1)/2) F[jr]^n F[j(rn+s)] (n odd)",
            lambda q: (q.n, 1, _sgn(q.j * q.r + 1), q.j, 2 * q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E8, q),
        ),
        IdentityDescriptor(
            IdentityId.E9, F, njp,
            "sum_k (-1)^k C(n,k) F[p+jr]^(n-k) F[p]^k F[j(rk+s)]"
            " = (-1)^(js+1) F[jr]^n F[pn-js]",
            lambda q: (q.n, fib(q.p + q.j * q.r), -fib(q.p), q.j, q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E9, q),
        ),
        IdentityDescriptor(
            IdentityId.E10, L, njp,
            "sum_k (-1)^k C(n,k) F[p+jr]^(n-k) F[p]^k L[j(rk+s)]"
            " = (-1)^(js) F[jr]^n L[pn-js]",
            lambda q: (q.n, fib(q.p + q.j * q.r), -fib(q.p), q.j, q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E10, q),
        ),
        IdentityDescriptor(
            IdentityId.E11, F, njp,
            "sum_k (-1)^k C(n,k) L[p+jr]^(n-k) L[p]^k F[j(rk+s)]"
            " = (-1)^(js+1) 5^(n/2) F[jr]^n F[pn-js] (n even)"
            " | (-1)^(js+1) 5^((n-1)/2) F[jr]^n L[pn-js] (n odd)",
            lambda q: (q.n, lucas(q.p + q.j * q.r), -lucas(q.p), q.j, q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E11, q),
        ),
        IdentityDescriptor(
            IdentityId.E12, L, njp,
            "sum_k (-1)^k C(n,k) L[p+jr]^(n-k) L[p]^k L[j(rk+s)]"
            " = (-1)^(js) 5^(n/2) F[jr]^n L[pn-js] (n even)"
            " | (-1)^(js) 5^((n+1)/2) F[jr]^n F[pn-js] (n odd)",
            lambda q: (q.n, lucas(q.p + q.j * q.r), -lucas(q.p), q.j, q.r, q.s, 1),
            lambda q: special_linear_rhs(IdentityId.E12, q),
        ),
        IdentityDescriptor(
            IdentityId.T1_F2RHS, F, nj,
            "5 sum_k C(n,k) F[j(rk+s)]^2 = a^(2js)(1+a^(2jr))^n"
            " + b^(2js)(1+b^(2jr))^n - 2(-1)^(js)(1+(-1)^(jr))^n",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2),
            lambda q: transform.binomial_rhs(
                transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 2, SequenceKind.FIB
            ),
        ),
        IdentityDescriptor(
            IdentityId.T1_L2RHS, L, nj,
            "sum_k C(n,k) L[j(rk+s)]^2 = a^(2js)(1+a^(2jr))^n"
            " + b^(2js)(1+b^(2jr))^n + 2(-1)^(js)(1+(-1)^(jr))^n",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2),
            lambda q: transform.binomial_rhs(
                transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 2, SequenceKind.LUCAS
            ),
        ),
        IdentityDescriptor(
            IdentityId.Q13, F, njp,
            "sum_k (-1)^k C(n,k) F[2jr+p]^(n-k) F[p]^k F[j(rk+s)]^2"
            " = (F[2jr]^n L[pn-2js] - (-1)^(js) 2 F[jr]^n L[jr+p]^n)/5, p != 0",
            lambda q: (q.n, fib(2 * q.j * q.r + q.p), -fib(q.p), q.j, q.r, q.s, 2),
            lambda q: quadratic_rhs(IdentityId.Q13, q.n, q.j, q.r, q.s, q.p),
            _nonzero_p,
        ),
        IdentityDescriptor(
            IdentityId.Q14, L, njp,
            "sum_k (-1)^k C(n,k) F[2jr+p]^(n-k) F[p]^k L[j(rk+s)]^2"
            " = F[2jr]^n L[pn-2js] + (-1)^(js) 2 F[jr]^n L[jr+p]^n, p != 0",
            lambda q: (q.n, fib(2 * q.j * q.r + q.p), -fib(q.p), q.j, q.r, q.s, 2),
            lambda q: quadratic_rhs(IdentityId.Q14, q.n, q.j, q.r, q.s, q.p),
            _nonzero_p,
        ),
        IdentityDescriptor(
            IdentityId.Q15, F, njp,
            "sum_k (-1)^k C(n,k) L[2jr+p]^(n-k) L[p]^k F[j(rk+s)]^2"
            " = 5^(n/2-1) F[2jr]^n L[pn-2js] - (-1)^(js) 5^(n-1) 2 F[jr]^n F[jr+p]^n (n even)"
            " | 5^((n-1)/2) F[2jr]^n F[pn-2js] - same tail (n odd)",
            lambda q: (q.n, lucas(2 * q.j * q.r + q.p), -lucas(q.p), q.j, q.r, q.s, 2),
            lambda q: quadratic_rhs(IdentityId.Q15, q.n, q.j, q.r, q.s, q.p),
        ),
        IdentityDescriptor(
            IdentityId.Q16, L, njp,
            "sum_k (-1)^k C(n,k) L[2jr+p]^(n-k) L[p]^k L[j(rk+s)]^2"
            " = 5^(n/2) F[2jr]^n L[pn-2js] + (-1)^(js) 5^n 2 F[jr]^n F[jr+p]^n (n even)"
            " | 5^((n+1)/2) F[2jr]^n F[pn-2js] + same tail (n odd)",
            lambda q: (q.n, lucas(2 * q.j * q.r + q.p), -lucas(q.p), q.j, q.r, q.s, 2),
            lambda q: quadratic_rhs(IdentityId.Q16, q.n, q.j, q.r, q.s, q.p),
        ),
        IdentityDescriptor(
            IdentityId.C18, F, ("n", "s"),
            "sum_k C(n,k) F[k+s]^3 = (2^n F[2n+3s] + 3 F[n-s])/5",
            lambda q: (q.n, 1, 1, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C18, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.C19, L, ("n", "s"),
            "sum_k C(n,k) L[k+s]^3 = 2^n L[2n+3s] + 3 L[n-s]",
            lambda q: (q.n, 1, 1, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C19, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.C20, F, ("n", "s"),
            "sum_k (-1)^k C(n,k) F[k+s]^3 = ((-1)^n 2^n F[n+3s] - (-1)^s 3 F[2n+s])/5",
            lambda q: (q.n, 1, -1, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C20, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.C21, L, ("n", "s"),
            "sum_k (-1)^k C(n,k) L[k+s]^3 = (-1)^n 2^n L[n+3s] + (-1)^s 3 L[2n+s]",
            lambda q: (q.n, 1, -1, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C21, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.C22, F, ("n", "s"),
            "sum_k C(n,k) 2^k F[k+s]^3 = 5^(n/2-1)(F[3n+3s] - (-1)^s 3 F[s]) (n even)"
            " | 5^((n-3)/2)(L[3n+3s] + (-1)^s 3 L[s]) (n odd)",
            lambda q: (q.n, 1, 2, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C22, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.C23, L, ("n", "s"),
            "sum_k C(n,k) 2^k L[k+s]^3 = 5^(n/2)(L[3n+3s] + (-1)^s 3 L[s]) (n even)"
            " | 5^((n+1)/2)(F[3n+3s] - (-1)^s 3 F[s]) (n odd)",
            lambda q: (q.n, 1, 2, 1, 1, q.s, 3),
            lambda q: cubic_rhs(IdentityId.C23, q.n, q.s),
        ),
        IdentityDescriptor(
            IdentityId.EVEN_F, F, njm,
            "sum_k C(n,k) F[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2 * q.m),
            lambda q: even_power_rhs(q.n, q.j, q.r, q.s, q.m, False, SequenceKind.FIB),
        ),
        IdentityDescriptor(
            IdentityId.EVEN_L, L, njm,
            "sum_k C(n,k) L[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
            lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2 * q.m),
            lambda q: even_power_rhs(q.n, q.j, q.r, q.s, q.m, False, SequenceKind.LUCAS),
        ),
        IdentityDescriptor(
            IdentityId.ALT_EVEN_F, F, njm,
            "sum_k (-1)^k C(n,k) F[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
            lambda q: (q.n, 1, -1, q.j, q.r, q.s, 2 * q.m),
            lambda q: even_power_rhs(q.n, q.j, q.r, q.s, q.m, True, SequenceKind.FIB),
        ),
        IdentityDescriptor(
            IdentityId.ALT_EVEN_L, L, njm,
            "sum_k (-1)^k C(n,k) L[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
            lambda q: (q.n, 1, -1, q.j, q.r, q.s, 2 * q.m),
            lambda q: even_power_rhs(q.n, q.j, q.r, q.s, q.m, True, SequenceKind.LUCAS),
        ),
        IdentityDescriptor(
            IdentityId.ODD_F, F, njm,
            "sum_k C(n,k) F[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
            lambda q: (q.n, 1, 1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
            lambda q: odd_power_rhs(q.n, q.j, q.r, q.s, q.m, False, SequenceKind.FIB),
        ),
        IdentityDescriptor(
            IdentityId.ODD_L, L, njm,
            "sum_k C(n,k) L[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
            lambda q: (q.n, 1, 1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
            lambda q: odd_power_rhs(q.n, q.j, q.r, q.s, q.m, False, SequenceKind.LUCAS),
        ),
        IdentityDescriptor(
            IdentityId.ALT_ODD_F, F, njm,
            "sum_k (-1)^k C(n,k) F[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
            lambda q: (q.n, 1, -1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
            lambda q: odd_power_rhs(q.n, q.j, q.r, q.s, q.m, True, SequenceKind.FIB),
        ),
        IdentityDescriptor(
            IdentityId.ALT_ODD_L, L, njm,
            "sum_k (-1)^k C(n,k) L[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
            lambda q: (q.n, 1, -1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
            lambda q: odd_power_rhs(q.n, q.j, q.r, q.s, q.m, True, SequenceKind.LUCAS),
        ),
    ]
    return tuple(entries)


_CATALOG = _build_catalog()
_BY_ID = {d.id: d for d in _CATALOG}
_CATALOG_INDEX = {d.id: i for i, d in enumerate(_CATALOG)}


def catalog() -> tuple[IdentityDescriptor, ...]:
    """All identity descriptors, in the stable documented order (F1 first)."""
    return _CATALOG


def descriptor(id: IdentityId) -> IdentityDescriptor:
    try:
        return _BY_ID[id]
    except KeyError:
        raise ValueError(f"unknown identity id: {id!r}") from None


def catalog_index(id: IdentityId) -> int:
    """Position of an identity in the catalog order (the canonical sort key)."""
    return _CATALOG_INDEX[id]


def eval_pair(id: IdentityId, params: IdentityParams) -> EvalOutcome:
    """Evaluate both sides of an identity and compare exactly.

    Raises InapplicableParamsError outside the identity's stated domain.
    """
    desc = descriptor(id)
    ok, reason = desc.applicable(params)
    if not ok:
        raise InapplicableParamsError(f"{id.value}: {reason}")
    lhs = desc.lhs(params)
    rhs = desc.rhs(params)
    return EvalOutcome(lhs, rhs, lhs == rhs)

