"""The identity catalog: one row per F/L pair, paired with its embedding
into the direct-summation oracle.

The paper states its sums in F/L pairs whose members share the left side.
The catalog is written as one row per pair: the two ids, the parameter slots
both read, the one direct_sum call computing the shared left side term by
term, and each member's anchor with its closed form, a lambda next to it.
The row is an identity's one declaration: `IdentityId` is built from the
rows' ids, and the rows expand into one `IdentityDescriptor` per identity,
F member first.  A descriptor is a namedtuple with read-only fields.
The catalog is the one table; no closed form takes an identity id.  An
identity's domain is stated once, in `IdentityDescriptor.applicable`: `rhs`
checks it and then calls the bound closed form, which checks nothing itself.
`eval_pair` runs both sides and reports exact equality, which is what the
grid verifier drives.

Both sides of every entry are ints.  Closed forms are computed with integer
Fibonacci/Lucas values only, apart from F1/L1 and the quadratic base forms
T1, which bind the Q(alpha) engine `transform.binomial_rhs` directly.
`_times_5pow` is the one division by a power of 5 and the one integrality
check; a 5^k with k known to be non-negative (`_root5_swap`, Q15/Q16's
tail) is a plain product.  Integer powers follow the 0^0 = 1 convention.

The closed forms that branch on the parity of n (E7/E8, E11/E12, Q15/Q16,
C22/C23) take the branch from one rule, `_root5_swap`, the Binet pairing
alpha^i sqrt5^n -/+ beta^i (-sqrt5)^n.

The even- and odd-power theorems are one closed form, `_power_rhs`, of
sum_k (+/-1)^k C(n,k) W_{a+dk}^B with B*d even: EVEN has B = 2m, d = jr and
ODD has B = 2m+1, d = 2jr.  Its parity branch is the pair (Lucas first
factor, Fibonacci second factor), set by the parities of B*d/2, the sign, B,
n and the kind.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import transform
from .sequences import _FIB, SequenceKind, direct_sum, fib, lucas


class IntegralityError(ArithmeticError):
    """A closed form with integer weights produced a non-integer.

    The 5-power prefactors always cancel for integer-weighted sums; a
    failure indicates an implementation bug, never bad input.
    """


class InapplicableParamsError(ValueError):
    """Parameters outside an identity's stated domain."""


class IdentityParams(NamedTuple):
    """Parameter tuple for a catalog entry; unused slots keep their defaults.

    A NamedTuple, like `EvalOutcome`: immutable, hashable and picklable, and
    cheap to build positionally, as `verify` does once per grid point.
    """

    n: int = 0
    j: int = 1
    r: int = 1
    s: int = 0
    p: int = 1
    m: int = 1


SLOT_ORDER = IdentityParams._fields


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


def _times_5pow(value: int, e: int) -> int:
    """value * 5^e; the one integrality check, raising IntegralityError on a remainder."""
    if e >= 0:
        return value * 5**e
    q, rem = divmod(value, 5**-e)
    if rem:
        raise IntegralityError(f"expected an integer value, got {Fraction(value, 5**-e)}")
    return q


# ---------------------------------------------------------------------------
# Closed forms bound by name (the rest are lambdas in their catalog rows).
# None checks the domain: IdentityDescriptor.rhs does.


def _root5_swap(n: int, kind: SequenceKind, i: int) -> int:
    """alpha^i sqrt5^n - beta^i (-sqrt5)^n over sqrt5 (F), or with + (L).

    As an int: 5^(n/2) W_i for even n, and 5^((n-1)/2) L_i (F) or
    5^((n+1)/2) F_i (L) for odd n.
    """
    if n % 2 == 0:
        return 5 ** (n // 2) * (fib(i) if kind is _FIB else lucas(i))
    if kind is _FIB:
        return 5 ** (n // 2) * lucas(i)
    return 5 ** (n // 2 + 1) * fib(i)


def _power_rhs(
    n: int,
    a: int,
    d: int,
    big: int,
    alternating: bool,
    kind: SequenceKind,
) -> int:
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
    is_fib = kind is _FIB
    fib_first = (big * d // 2) % 2 != alternating
    fib_second = (is_fib and big % 2 == 1) != (fib_first and n % 2 == 1)
    first = fib if fib_first else lucas
    second = fib if fib_second else lucas
    sign_e = a + d * n + is_fib
    total = 0
    for i in range((big + 1) // 2):
        t = big - 2 * i
        h = t * d // 2
        term = math.comb(big, i) * first(h) ** n * second(h * n + t * a)
        total += -term if (sign_e * i) % 2 else term
    if big % 2 == 0:
        center = math.comb(big, big // 2) * (0 if fib_first else 2) ** n
        total += -center if (sign_e * (big // 2)) % 2 else center
    if alternating and n % 2:
        total = -total
    return _times_5pow(total, (n * fib_first + fib_second - big * is_fib) // 2)


# ---------------------------------------------------------------------------
# Catalog


class EvalOutcome(NamedTuple):
    lhs: int
    rhs: int
    match: bool


class IdentityDescriptor(
    namedtuple("IdentityDescriptor", "id kind slots anchor lhs_args closed domain_error", defaults=(None,))
):
    """Binds an identity tag to its domain, oracle embedding and closed form.

    `slots` lists the parameter names the identity reads; the grid verifier
    collapses the rest.  `anchor` is the stable, human-readable statement of
    the identity (part of the public naming contract used by reports).
    `lhs_args` maps params to `direct_sum`'s (n, x, z, j, r, s, m).  `closed`
    evaluates the right side and assumes `applicable`; `rhs` checks the domain
    first.  `domain_error`, if given, returns why params are outside the
    domain, or None.

    The fields are read-only.  With no `__slots__ = ()` an instance keeps a
    `__dict__`, so a tracer can shadow `lhs` or `rhs` on one entry.
    """

    def applicable(self, params: IdentityParams) -> tuple[bool, str | None]:
        if params.n < 0:
            return False, "n must be non-negative"
        # a field read is a generic descriptor lookup on an instance with a `__dict__`,
        # so `slots` is read only for a negative m, and `domain_error` once
        if params.m < 0 and "m" in self.slots:
            return False, "m must be non-negative"
        domain_error = self.domain_error
        if domain_error is not None:
            reason = domain_error(params)
            if reason is not None:
                return False, reason
        return True, None

    def lhs(self, params: IdentityParams) -> int:
        # unpacked, not passed as *args: a star call builds a tuple and costs
        # about 0.1 us more per point
        n, x, z, j, r, s, m = self.lhs_args(params)
        return direct_sum(n, x, z, j, r, s, m, self.kind)

    def rhs(self, params: IdentityParams) -> int:
        """The closed form; InapplicableParamsError outside the identity's domain."""
        ok, reason = self.applicable(params)
        if not ok:
            raise InapplicableParamsError(f"{self.id.value}: {reason}")
        return self.closed(params)


def _nonzero_p(params: IdentityParams) -> str | None:
    if params.p == 0:
        return "p must be nonzero"
    return None


def _build_catalog() -> tuple[type[Enum], tuple[IdentityDescriptor, ...]]:
    F, L = SequenceKind.FIB, SequenceKind.LUCAS
    nj = ("n", "j", "r", "s")
    njp = ("n", "j", "r", "s", "p")
    njm = ("n", "j", "r", "s", "m")
    ns = ("n", "s")
    # One row per F/L pair, which shares its slots, oracle embedding and domain:
    # (F id, L id, slots, lhs_args, F anchor, F closed, L anchor, L closed[, domain_error])
    pairs = [
        ("F1", "L1", nj,
         lambda q: (q.n, 1, 1, q.j, q.r, q.s, 1),
         "sum_k C(n,k) F[j(rk+s)] = (a^(js)(1+a^(jr))^n - b^(js)(1+b^(jr))^n)/sqrt5",
         lambda q: transform.binomial_rhs(transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 1, F),
         "sum_k C(n,k) L[j(rk+s)] = a^(js)(1+a^(jr))^n + b^(js)(1+b^(jr))^n",
         lambda q: transform.binomial_rhs(transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 1, L)),
        ("E5", "E6", nj,
         lambda q: (q.n, 1, _sgn(q.j * q.r), q.j, 2 * q.r, q.s, 1),
         "sum_k (-1)^(jrk) C(n,k) F[j(2rk+s)] = (-1)^(jrn) L[jr]^n F[j(rn+s)]",
         lambda q: _sgn(q.j * q.r * q.n) * lucas(q.j * q.r) ** q.n * fib(q.j * (q.r * q.n + q.s)),
         "sum_k (-1)^(jrk) C(n,k) L[j(2rk+s)] = (-1)^(jrn) L[jr]^n L[j(rn+s)]",
         lambda q: _sgn(q.j * q.r * q.n) * lucas(q.j * q.r) ** q.n * lucas(q.j * (q.r * q.n + q.s))),
        ("E7", "E8", nj,
         lambda q: (q.n, 1, _sgn(q.j * q.r + 1), q.j, 2 * q.r, q.s, 1),
         "sum_k (-1)^((jr+1)k) C(n,k) F[j(2rk+s)] = 5^(n/2) F[jr]^n F[j(rn+s)]"
         " (n even) | (-1)^(jr+1) 5^((n-1)/2) F[jr]^n L[j(rn+s)] (n odd)",
         lambda q: _sgn((q.j * q.r + 1) * q.n) * fib(q.j * q.r) ** q.n * _root5_swap(q.n, F, q.j * (q.r * q.n + q.s)),
         "sum_k (-1)^((jr+1)k) C(n,k) L[j(2rk+s)] = 5^(n/2) F[jr]^n L[j(rn+s)]"
         " (n even) | (-1)^(jr+1) 5^((n+1)/2) F[jr]^n F[j(rn+s)] (n odd)",
         lambda q: _sgn((q.j * q.r + 1) * q.n) * fib(q.j * q.r) ** q.n * _root5_swap(q.n, L, q.j * (q.r * q.n + q.s))),
        ("E9", "E10", njp,
         lambda q: (q.n, fib(q.p + q.j * q.r), -fib(q.p), q.j, q.r, q.s, 1),
         "sum_k (-1)^k C(n,k) F[p+jr]^(n-k) F[p]^k F[j(rk+s)]"
         " = (-1)^(js+1) F[jr]^n F[pn-js]",
         lambda q: _sgn(q.j * q.s + 1) * fib(q.j * q.r) ** q.n * fib(q.p * q.n - q.j * q.s),
         "sum_k (-1)^k C(n,k) F[p+jr]^(n-k) F[p]^k L[j(rk+s)]"
         " = (-1)^(js) F[jr]^n L[pn-js]",
         # the Lucas pairing alpha^(js) beta^(pn) + beta^(js) alpha^(pn) = (-1)^(js) L[pn-js]
         # carries no extra sign flip
         lambda q: _sgn(q.j * q.s) * fib(q.j * q.r) ** q.n * lucas(q.p * q.n - q.j * q.s)),
        ("E11", "E12", njp,
         lambda q: (q.n, lucas(q.p + q.j * q.r), -lucas(q.p), q.j, q.r, q.s, 1),
         "sum_k (-1)^k C(n,k) L[p+jr]^(n-k) L[p]^k F[j(rk+s)]"
         " = (-1)^(js+1) 5^(n/2) F[jr]^n F[pn-js] (n even)"
         " | (-1)^(js+1) 5^((n-1)/2) F[jr]^n L[pn-js] (n odd)",
         lambda q: _sgn(q.j * q.s + 1) * fib(q.j * q.r) ** q.n * _root5_swap(q.n, F, q.p * q.n - q.j * q.s),
         "sum_k (-1)^k C(n,k) L[p+jr]^(n-k) L[p]^k L[j(rk+s)]"
         " = (-1)^(js) 5^(n/2) F[jr]^n L[pn-js] (n even)"
         " | (-1)^(js) 5^((n+1)/2) F[jr]^n F[pn-js] (n odd)",
         lambda q: _sgn(q.j * q.s) * fib(q.j * q.r) ** q.n * _root5_swap(q.n, L, q.p * q.n - q.j * q.s)),
        ("T1_F2RHS", "T1_L2RHS", nj,
         lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2),
         "5 sum_k C(n,k) F[j(rk+s)]^2 = a^(2js)(1+a^(2jr))^n"
         " + b^(2js)(1+b^(2jr))^n - 2(-1)^(js)(1+(-1)^(jr))^n",
         lambda q: transform.binomial_rhs(transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 2, F),
         "sum_k C(n,k) L[j(rk+s)]^2 = a^(2js)(1+a^(2jr))^n"
         " + b^(2js)(1+b^(2jr))^n + 2(-1)^(js)(1+(-1)^(jr))^n",
         lambda q: transform.binomial_rhs(transform.BinomialKernel(q.n, 1, 1, q.r, q.s), q.j, 2, L)),
        ("Q13", "Q14", njp,
         lambda q: (q.n, fib(2 * q.j * q.r + q.p), -fib(q.p), q.j, q.r, q.s, 2),
         "sum_k (-1)^k C(n,k) F[2jr+p]^(n-k) F[p]^k F[j(rk+s)]^2"
         " = (F[2jr]^n L[pn-2js] - (-1)^(js) 2 F[jr]^n L[jr+p]^n)/5, p != 0",
         lambda q: _times_5pow(
             fib(2 * q.j * q.r) ** q.n * lucas(q.p * q.n - 2 * q.j * q.s)
             - _sgn(q.j * q.s) * 2 * fib(q.j * q.r) ** q.n * lucas(q.j * q.r + q.p) ** q.n,
             -1,
         ),
         "sum_k (-1)^k C(n,k) F[2jr+p]^(n-k) F[p]^k L[j(rk+s)]^2"
         " = F[2jr]^n L[pn-2js] + (-1)^(js) 2 F[jr]^n L[jr+p]^n, p != 0",
         lambda q: (
             fib(2 * q.j * q.r) ** q.n * lucas(q.p * q.n - 2 * q.j * q.s)
             + _sgn(q.j * q.s) * 2 * fib(q.j * q.r) ** q.n * lucas(q.j * q.r + q.p) ** q.n
         ),
         _nonzero_p),
        ("Q15", "Q16", njp,
         lambda q: (q.n, lucas(2 * q.j * q.r + q.p), -lucas(q.p), q.j, q.r, q.s, 2),
         "sum_k (-1)^k C(n,k) L[2jr+p]^(n-k) L[p]^k F[j(rk+s)]^2"
         " = 5^(n/2-1) F[2jr]^n L[pn-2js] - (-1)^(js) 5^(n-1) 2 F[jr]^n F[jr+p]^n (n even)"
         " | 5^((n-1)/2) F[2jr]^n F[pn-2js] - same tail (n odd)",
         lambda q: _times_5pow(
             fib(2 * q.j * q.r) ** q.n * _root5_swap(q.n, L, q.p * q.n - 2 * q.j * q.s)
             - _sgn(q.j * q.s) * 2 * 5**q.n * fib(q.j * q.r) ** q.n * fib(q.j * q.r + q.p) ** q.n,
             -1,
         ),
         "sum_k (-1)^k C(n,k) L[2jr+p]^(n-k) L[p]^k L[j(rk+s)]^2"
         " = 5^(n/2) F[2jr]^n L[pn-2js] + (-1)^(js) 5^n 2 F[jr]^n F[jr+p]^n (n even)"
         " | 5^((n+1)/2) F[2jr]^n F[pn-2js] + same tail (n odd)",
         lambda q: (
             fib(2 * q.j * q.r) ** q.n * _root5_swap(q.n, L, q.p * q.n - 2 * q.j * q.s)
             + _sgn(q.j * q.s) * 2 * 5**q.n * fib(q.j * q.r) ** q.n * fib(q.j * q.r + q.p) ** q.n
         )),
        ("C18", "C19", ns,
         lambda q: (q.n, 1, 1, 1, 1, q.s, 3),
         "sum_k C(n,k) F[k+s]^3 = (2^n F[2n+3s] + 3 F[n-s])/5",
         lambda q: _times_5pow(2**q.n * fib(2 * q.n + 3 * q.s) + 3 * fib(q.n - q.s), -1),
         "sum_k C(n,k) L[k+s]^3 = 2^n L[2n+3s] + 3 L[n-s]",
         lambda q: 2**q.n * lucas(2 * q.n + 3 * q.s) + 3 * lucas(q.n - q.s)),
        ("C20", "C21", ns,
         lambda q: (q.n, 1, -1, 1, 1, q.s, 3),
         "sum_k (-1)^k C(n,k) F[k+s]^3 = ((-1)^n 2^n F[n+3s] - (-1)^s 3 F[2n+s])/5",
         lambda q: _times_5pow(
             _sgn(q.n) * 2**q.n * fib(q.n + 3 * q.s) - _sgn(q.s) * 3 * fib(2 * q.n + q.s), -1
         ),
         "sum_k (-1)^k C(n,k) L[k+s]^3 = (-1)^n 2^n L[n+3s] + (-1)^s 3 L[2n+s]",
         lambda q: _sgn(q.n) * 2**q.n * lucas(q.n + 3 * q.s) + _sgn(q.s) * 3 * lucas(2 * q.n + q.s)),
        ("C22", "C23", ns,
         lambda q: (q.n, 1, 2, 1, 1, q.s, 3),
         "sum_k C(n,k) 2^k F[k+s]^3 = 5^(n/2-1)(F[3n+3s] - (-1)^s 3 F[s]) (n even)"
         " | 5^((n-3)/2)(L[3n+3s] + (-1)^s 3 L[s]) (n odd)",
         lambda q: _times_5pow(
             _root5_swap(q.n, F, 3 * q.n + 3 * q.s) - _sgn(q.n + q.s) * 3 * _root5_swap(q.n, F, q.s), -1
         ),
         "sum_k C(n,k) 2^k L[k+s]^3 = 5^(n/2)(L[3n+3s] + (-1)^s 3 L[s]) (n even)"
         " | 5^((n+1)/2)(F[3n+3s] - (-1)^s 3 F[s]) (n odd)",
         lambda q: _root5_swap(q.n, L, 3 * q.n + 3 * q.s) + _sgn(q.n + q.s) * 3 * _root5_swap(q.n, L, q.s)),
        ("EVEN_F", "EVEN_L", njm,
         lambda q: (q.n, 1, 1, q.j, q.r, q.s, 2 * q.m),
         "sum_k C(n,k) F[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, q.j * q.r, 2 * q.m, False, F),
         "sum_k C(n,k) L[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, q.j * q.r, 2 * q.m, False, L)),
        ("ALT_EVEN_F", "ALT_EVEN_L", njm,
         lambda q: (q.n, 1, -1, q.j, q.r, q.s, 2 * q.m),
         "sum_k (-1)^k C(n,k) F[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, q.j * q.r, 2 * q.m, True, F),
         "sum_k (-1)^k C(n,k) L[j(rk+s)]^(2m): closed form branched on parity of jmr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, q.j * q.r, 2 * q.m, True, L)),
        ("ODD_F", "ODD_L", njm,
         lambda q: (q.n, 1, 1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
         "sum_k C(n,k) F[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, 2 * q.j * q.r, 2 * q.m + 1, False, F),
         "sum_k C(n,k) L[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, 2 * q.j * q.r, 2 * q.m + 1, False, L)),
        ("ALT_ODD_F", "ALT_ODD_L", njm,
         lambda q: (q.n, 1, -1, q.j, 2 * q.r, q.s, 2 * q.m + 1),
         "sum_k (-1)^k C(n,k) F[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, 2 * q.j * q.r, 2 * q.m + 1, True, F),
         "sum_k (-1)^k C(n,k) L[j(2rk+s)]^(2m+1): closed form branched on parity of jr and n",
         lambda q: _power_rhs(q.n, q.j * q.s, 2 * q.j * q.r, 2 * q.m + 1, True, L)),
    ]
    # IdentityId: its members are the rows' ids in catalog order, F member first
    ids = Enum("IdentityId", [(id, id) for row in pairs for id in row[:2]], module=__name__, qualname="IdentityId")
    entries = []
    for f_id, l_id, slots, lhs_args, f_anchor, f_closed, l_anchor, l_closed, *domain in pairs:
        entries.append(IdentityDescriptor(ids(f_id), F, slots, f_anchor, lhs_args, f_closed, *domain))
        entries.append(IdentityDescriptor(ids(l_id), L, slots, l_anchor, lhs_args, l_closed, *domain))
    return ids, tuple(entries)


IdentityId, _CATALOG = _build_catalog()
_BY_ID = {d.id: d for d in _CATALOG}


def catalog() -> tuple[IdentityDescriptor, ...]:
    """All identity descriptors, in the stable documented order (F1 first)."""
    return _CATALOG


def descriptor(id: IdentityId) -> IdentityDescriptor:
    try:
        return _BY_ID[id]
    except KeyError:
        raise ValueError(f"unknown identity id: {id!r}") from None


def eval_pair(id: IdentityId, params: IdentityParams) -> EvalOutcome:
    """Evaluate both sides of an identity and compare exactly.

    Raises InapplicableParamsError outside the identity's stated domain.
    """
    desc = descriptor(id)
    rhs = desc.rhs(params)
    lhs = desc.lhs(params)
    return EvalOutcome(lhs, rhs, lhs == rhs)

