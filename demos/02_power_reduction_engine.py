"""The power-reduction engine.

A weighted sum of m-th powers of Fibonacci or Lucas values collapses to a
signed binomial combination of one kernel function evaluated at points
beta^(ij) alpha^((m-i)j) z in Q(alpha).  This script shows the generic
kernel form, then the binomial kernel that drives the identity catalog.
"""

from fractions import Fraction

from fibsums import (
    BinomialKernel,
    Kernel,
    SequenceKind,
    binomial_rhs,
    direct_sum,
    fib,
    lucas,
    reduce_power,
)

F, L = SequenceKind.FIB, SequenceKind.LUCAS

print("=== A kernel is a finite list of (coefficient, exponent) terms ===")
h = Kernel(((1, 4),))
print("h(z) = z^4, one term, so the reduction gives a single power:")
print("reduce_power(h, j=1, m=2, z=1, F) =", reduce_power(h, 1, 2, 1, F), " = F_4^2 =", fib(4) ** 2)
print("reduce_power(h, j=2, m=3, z=1, L) =", reduce_power(h, 2, 3, 1, L), " = L_8^3 =", lucas(8) ** 3)

print()
print("=== Mixed kernels with rational weights and negative exponents ===")
h = Kernel(((Fraction(1, 2), 3), (2, -1), (1, 0)))
z = Fraction(3, 2)
print("h(z) = z^3/2 + 2/z + 1 at z = 3/2, squares of F_{3k}:")
got = reduce_power(h, 3, 2, z, F)
expected = (
    Fraction(1, 2) * z**3 * fib(9) ** 2 + 2 * z**-1 * fib(-3) ** 2 + fib(0) ** 2
)
print("engine:", got, "  term-by-term:", expected, " equal:", got == expected)

print()
print("=== The binomial kernel z^s (x + z^r)^n ===")
bk = BinomialKernel(n=4, x=1, z=1, r=1, s=0)
print("expanded terms (coefficient, exponent):", bk.terms)
print()
print("its reduction evaluates sum_k C(n,k) x^(n-k) z^k W_{j(rk+s)}^m exactly:")
for m in range(4):
    closed = binomial_rhs(bk, 1, m, F)
    oracle = direct_sum(4, 1, 1, 1, 1, 0, m, F)
    print(f"  m={m}: closed form {closed}   direct summation {oracle}   equal: {closed == oracle}")

print()
print("=== Works for any integer j, r, s and exact rational x, z ===")
bk = BinomialKernel(n=5, x=Fraction(-3, 2), z=Fraction(1, 4), r=-2, s=3)
for kind in (F, L):
    closed = binomial_rhs(bk, -3, 2, kind)
    oracle = direct_sum(5, Fraction(-3, 2), Fraction(1, 4), -3, -2, 3, 2, kind)
    print(f"  {kind.name:<5}: {closed} == {oracle}: {closed == oracle}")
