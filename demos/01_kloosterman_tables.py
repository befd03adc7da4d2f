#!/usr/bin/env python3
"""Kloosterman sums over GF(2^r): exact values, the Weil bound, and the
trace-zero / trace-one split of their power moments.

K(lambda; a) sums the character lambda(x + a/x) over the nonzero field
elements.  The values are plain integers, they respect the Frobenius orbit of
the argument, and their size is pinned down by the Weil bound K^2 <= 4q.
"""

from kloosterman import Field, ktable, moments
from kloosterman.ksum import theta_character_sums, twisted_sums

for r in (1, 2, 3, 4):
    f = Field(r)
    table = ktable(f)
    print(f"\nGF(2^{r}) = GF({f.q}), modulus {f.modulus:#x}")
    print(f"  K(lambda; a) by argument: {dict(sorted(table.items()))}")
    print(f"  Weil bound 2*sqrt(q) = {2 * f.q ** 0.5:.2f}: "
          f"max |K| = {max(abs(k) for k in table.values())}")

    # power moments, split by the trace of the argument
    print("  h   MK^h   T0K^h   T1K^h")
    for h in range(5):
        m = moments(f, h)
        assert m.mk == m.t0k + m.t1k
        print(f"  {h}  {m.mk:5d}  {m.t0k:6d}  {m.t1k:6d}")

# two classical identities, checked exactly at q = 16
f = Field(4)
table = ktable(f)
print(f"\nIdentities over GF(16):")
theta, twisted = theta_character_sums(f), twisted_sums(f)
ok1 = all(theta[b] == table[b] - 1 for b in f.units())
print(f"  sum of lambda(b/(x^2+x)) over x != 0,1  ==  K(lambda;b) - 1: {ok1}")
ok2 = all(twisted[b] == (f.q * f.lam(f.inv(b)) + 1 if b else 1) for b in f.elements())
print(f"  sum of lambda(ab) K(lambda;a) over a != 0  ==  q lambda(1/b) + 1: {ok2}")
