"""Exact integer sequences and golden-ratio arithmetic.

Walks through the two foundations everything else builds on: fast-doubling
Fibonacci/Lucas values for any integer index, and exact arithmetic in
Q(alpha) with alpha the golden ratio.
"""

from fibsums import ALPHA, BETA, ONE, SQRT5, QuadNum, alpha_pow, fib, lucas

print("=== Fibonacci and Lucas values, any integer index ===")
print("F_0..F_10 :", [fib(n) for n in range(11)])
print("L_0..L_10 :", [lucas(n) for n in range(11)])
print("negative indices reflect with alternating signs:")
print("F_-8..F_-1:", [fib(n) for n in range(-8, 0)])
print("L_-8..L_-1:", [lucas(n) for n in range(-8, 0)])

print()
print("indices can be huge; values stay exact:")
print("F_1000 has", len(str(fib(1000))), "digits")
print("F_1000 =", str(fib(1000))[:60], "...")

print()
print("=== A free sanity check: the Cassini identity ===")
for n in (5, 6, -9):
    print(f"F_{n+1}*F_{n-1} - F_{n}^2 =", fib(n + 1) * fib(n - 1) - fib(n) ** 2)

print()
print("=== The ring Q(alpha): elements are u + v*alpha ===")
print("alpha       =", ALPHA)
print("beta        =", BETA, " (the conjugate root, 1 - alpha)")
print("sqrt5       =", SQRT5, " (2*alpha - 1)")
print("alpha^2     =", ALPHA * ALPHA, " (= alpha + 1)")
print("alpha*beta  =", ALPHA * BETA)
print("sqrt5^2     =", SQRT5 * SQRT5)

print()
print("=== Powers of alpha encode Fibonacci pairs ===")
for n in (7, 0, -5):
    print(f"alpha^{n:<3} = {alpha_pow(n)}   (F_{n-1}, F_{n}) = ({fib(n-1)}, {fib(n)})")

print()
print("=== Binet reconstruction, exactly ===")
n = 12
an = alpha_pow(n)
bn = an.conj()
print(f"(alpha^{n} - beta^{n}) / sqrt5 =", (an - bn) * SQRT5.inv(), " -> F_12 =", fib(12))
print(f"alpha^{n} + beta^{n}          =", an + bn, " -> L_12 =", lucas(12))

print()
print("=== The a + b*sqrt5 view of an element ===")
t = 9
doubled = 2 * alpha_pow(t)
print(f"2*alpha^{t} =", doubled)
parts = lucas(t) * ONE + fib(t) * SQRT5
print(f"as p + q*sqrt5 with (p, q) = (L_{t}, F_{t}) = ({lucas(t)}, {fib(t)}):", parts, " equal:", parts == doubled)
