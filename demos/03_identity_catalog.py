"""A tour of the identity catalog.

Every entry pairs a closed form with its embedding into the direct-summation
oracle; eval_pair computes both sides exactly and compares.
"""

from fibsums import IdentityId, IdentityParams, catalog, descriptor, eval_pair

print("=== The catalog ===")
for desc in catalog():
    print(f"{desc.id.value:<12} slots={','.join(desc.slots):<11} {desc.anchor[:80]}")

print()
print("=== Checking one point per family ===")
samples = [
    (IdentityId.F1, IdentityParams(n=6, j=2, r=-1, s=3)),
    (IdentityId.E6, IdentityParams(n=2, j=1, r=1, s=0)),
    (IdentityId.E9, IdentityParams(n=2, j=1, r=1, s=0, p=2)),
    (IdentityId.Q14, IdentityParams(n=3, j=1, r=2, s=-1, p=2)),
    (IdentityId.C18, IdentityParams(n=2, s=1)),
    (IdentityId.C22, IdentityParams(n=5, s=-2)),
    (IdentityId.EVEN_F, IdentityParams(n=4, j=3, r=1, s=2, m=2)),
    (IdentityId.ALT_ODD_L, IdentityParams(n=5, j=-2, r=1, s=1, m=1)),
]
for id, params in samples:
    outcome = eval_pair(id, params)
    shown = {slot: getattr(params, slot) for slot in descriptor(id).slots}
    print(f"{id.value:<11} {str(shown):<45} lhs={outcome.lhs} rhs={outcome.rhs} match={outcome.match}")

print()
print("=== Domains are part of the contract ===")
ok, reason = descriptor(IdentityId.Q13).applicable(IdentityParams(n=2, p=0))
print("Q13 at p=0 applicable?", ok, "->", reason)
ok, _ = descriptor(IdentityId.EVEN_F).applicable(IdentityParams(n=3, m=0))
print("EVEN_F at m=0 applicable?", ok, " (degenerate but valid: the sum is 2^n)")
print("EVEN_F at m=0, n=3:", eval_pair(IdentityId.EVEN_F, IdentityParams(n=3, m=0)))

print()
print("=== Values grow fast but stay exact ===")
big = eval_pair(IdentityId.C19, IdentityParams(n=150, s=7))
print("C19 at n=150, s=7: match =", big.match)
print("value has", len(str(big.lhs.numerator)), "digits:", str(big.lhs)[:60], "...")
