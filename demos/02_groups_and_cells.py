#!/usr/bin/env python3
"""The odd orthogonal and symplectic groups over GF(2^r), their maximal
parabolic subgroup P, and the double cosets P sigma_r P slicing the group.

The groups are enumerated exactly (classical) and cross-checked against the
closed counts (dcsum): |P|, the coset counts |A_r \\ P|, and the cell sizes.
The trace histogram of a cell, counted without enumerating it, is the object
the code construction downstream consumes.
"""

import time

from kloosterman import SYMPLECTIC, Field
from kloosterman.classical import (
    enumerate_double_coset,
    enumerate_parabolic,
    iota,
    sigma_r,
    symplectic_by_form,
)
from kloosterman.dcsum import dc_trace_histogram, group_order_data
from kloosterman.matfq import mat_trace

f2 = Field(1)

orders = group_order_data(2, f2)
print("O(5,2) / Sp(4,2) structure:")
print(f"  |P| = {orders.parabolic}")
print(f"  |A_r|       by r: {orders.stabilizers}")
print(f"  cell sizes  by r: {orders.cells}  (sum = {orders.group_order})")

# the Bruhat decomposition, verified against Sp(4,2) found from its form alone
# by an exhaustive column search pruned on w^T J w
t0 = time.perf_counter()
sp42 = symplectic_by_form(f2, 2)
cells = [set(enumerate_double_coset(2, r, f2, SYMPLECTIC)) for r in range(3)]
assert set().union(*cells) == sp42 and sum(map(len, cells)) == len(sp42)
print(f"  brute-forced Sp(4,2) ({len(sp42)} elements) is exactly the disjoint "
      f"union of the three cells  [{time.perf_counter() - t0:.1f}s]")

# dropping the last row and column is an isomorphism onto the symplectic group,
# and shifts every matrix trace by one
w = sigma_r(2, 1)
print(f"\n  Tr sigma_1 = {mat_trace(w)},  Tr iota(sigma_1) = {mat_trace(iota(f2, w, 2))}")

# the headline cell: P sigma_2 P inside O(7,2), 602112 elements, counted from
# the Levi factor of P without enumerating the cell
t0 = time.perf_counter()
hist = dc_trace_histogram(3, 2, f2)
print(f"\nO(7,2): trace histogram of the 602112-element cell "
      f"[{time.perf_counter() - t0:.1f}s]")
print(f"  {hist}")

# a small symplectic parabolic listed in full
print("\nP'(2,4) elements (a, b) -> [[a, ab], [0, 1/a]]; traces a + 1/a:")
f4 = Field(2)
traces = {}
for w in enumerate_parabolic(1, f4, SYMPLECTIC):
    traces[mat_trace(w)] = traces.get(mat_trace(w), 0) + 1
print(f"  trace histogram: {traces}")
