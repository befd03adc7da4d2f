#!/usr/bin/env python3
"""Binary codes from double-coset traces, their duals, and weight data.

List the cell elements g_1..g_N in a fixed order and form the vector v of
their matrix traces.  The code is {u in GF(2)^N : u . v = 0 in the field};
its dual consists of the traced multiples c(a) = (tr(a Tr g_j))_j, whose
Hamming weights come out in closed form through K(lambda; a).
"""

from kloosterman import Field
from kloosterman.dcsum import cell_constants, closed_histogram
from kloosterman.wcode import (
    code_bruteforce_wd,
    defining_vector,
    delsarte_check,
    dual_enumerate,
    dual_kernel,
    weight_prefix_closed,
)

# the length-12 code from the cell of O(3,4): small enough to brute-force
f4 = Field(2)
consts = cell_constants(1, f4)
print(f"cell of O(3,4): N = {consts.size} = {consts.scale} * {consts.cofactor}")
print(f"  defining trace vector: {defining_vector(1, f4)}")

brute = code_bruteforce_wd(1, f4)
closed = weight_prefix_closed(1, f4, consts.size)
print(f"  2^12 brute force: {sum(brute.values())} codewords")
print(f"  weight distribution (brute) : {[brute.get(j, 0) for j in range(13)]}")
print(f"  weight distribution (closed): {closed}")
assert closed == [brute.get(j, 0) for j in range(13)]
print(f"  palindromic: {all(brute.get(j, 0) == brute.get(12 - j, 0) for j in range(13))}")

# the dual: traced multiples of the defining vector
print(f"  dual codewords (a, weight): {dual_enumerate(1, f4)}")
print(f"  kernel of a -> c(a): {dual_kernel(1, f4)}  (only q/2 = 2 distinct duals here)")
print(f"  dual as the row space of the bit matrix equals the traced set: {delsarte_check(1, f4)}")

# at q = 8 the kernel is trivial and the dual weights follow K(lambda; a)
f8 = Field(3)
print(f"\ncell of O(3,8): dual weight of c(a) = scale*(cofactor - lambda(a)K(a))/2")
for a, w in dual_enumerate(1, f8):
    print(f"  a={a}:  weight {w}")

# weight prefixes stay exact even when N is astronomically large
f2 = Field(1)
big = cell_constants(3, f2)
print(f"\ncell of O(7,2): N = {big.size}; first weight counts")
print(f"  orthogonal cell code : {weight_prefix_closed(3, f2, 4)}")
print(f"  symplectic cell code : {weight_prefix_closed(3, f2, 4, 'symplectic')}")
print(f"  trace histogram behind them: {closed_histogram(3, f2)}")
