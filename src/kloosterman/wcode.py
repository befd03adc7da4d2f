"""Binary codes cut out by double-coset trace vectors, their duals, and
exact weight-distribution prefixes.

The code of a cell is the set of binary words orthogonal (in the field) to
the vector of element traces; a word's membership depends only on how many
coordinates it selects within each trace class, so weight counts reduce to
constrained compositions over the trace histogram.  Dual codewords arise by
tracing multiples of the defining vector, with closed-form Hamming weights.
"""

from __future__ import annotations

import math
import warnings

from .classical import DEFAULT_BUDGET, ORTHOGONAL, BudgetError, enumerate_double_coset
from .dcsum import cell_constants, closed_histogram
from .gf2r import Field
from .ksum import kloosterman
from .matfq import mat_trace

#: Largest code length for which 2^N brute force is allowed.
BRUTE_LENGTH_LIMIT = 24


def dual_weight(n: int, field: Field, a: int) -> int:
    """Hamming weight of the dual codeword indexed by a, in closed form.

    a = 0 indexes the zero codeword; that degenerate weight 0 is returned
    with a warning rather than an error, since 0 legitimately indexes a dual
    codeword.
    """
    if a == 0:
        warnings.warn("a = 0 indexes the zero dual codeword", RuntimeWarning, stacklevel=2)
        return 0
    consts = cell_constants(n, field)
    value = consts.scale * (consts.cofactor - field.lam(a) * kloosterman(field, a))
    if value % 2:
        raise ArithmeticError(f"odd doubled dual weight {value} at (n={n}, q={field.q}, a={a})")
    return value // 2


def dual_weight_from_histogram(field: Field, hist: dict[int, int], a: int) -> int:
    """Weight of the dual codeword as counted from a trace histogram."""
    mul, trace = field.mul, field.trace
    return sum(count for beta, count in hist.items() if trace(mul(a, beta)) == 1)


def dual_kernel(n: int, field: Field) -> set[int]:
    """All a whose dual codeword is zero: tr(a*beta) = 0 on the histogram support."""
    hist = closed_histogram(n, field, ORTHOGONAL)
    support = [beta for beta, count in hist.items() if count > 0]
    mul, trace = field.mul, field.trace
    return {a for a in field.elements() if all(trace(mul(a, beta)) == 0 for beta in support)}


def distinct_dual_count(n: int, field: Field) -> int:
    """Number of distinct dual codewords (q over the kernel size)."""
    return field.q // len(dual_kernel(n, field))


def weight_prefix(field: Field, hist: dict[int, int], jmax: int) -> list[int]:
    """Exact codeword counts by weight, for weights 0..jmax.

    Counts selections of nu_beta coordinates from each trace class such that
    the total is j and the field-weighted sum of selected traces vanishes.
    Dynamic programming over (count so far, partial field sum); weights are
    arbitrary-precision ints throughout.
    """
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    dp: dict[tuple[int, int], int] = {(0, 0): 1}
    for beta, count in hist.items():
        if count == 0:
            continue
        new: dict[tuple[int, int], int] = {}
        for (j, s), ways in dp.items():
            for nu in range(min(jmax - j, count) + 1):
                key = (j + nu, s ^ (beta if nu & 1 else 0))
                new[key] = new.get(key, 0) + ways * math.comb(count, nu)
        dp = new
    return [dp.get((j, 0), 0) for j in range(jmax + 1)]


def weight_prefix_closed(
    n: int, field: Field, jmax: int, family: str = ORTHOGONAL
) -> list[int]:
    """Weight prefix of the cell code straight from its closed-form histogram."""
    return weight_prefix(field, closed_histogram(n, field, family), jmax)


def defining_vector(n: int, field: Field, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Traces of the cell elements in the fixed enumeration order.

    code_bruteforce_wd and delsarte_check depend only on the multiset of these
    traces: permuting the coordinates permutes every codeword and dual word
    alike, so weights and set equality are unchanged by the order.
    """
    return [mat_trace(w) for w in enumerate_double_coset(n, n - 1, field, ORTHOGONAL, budget)]


def code_bruteforce_wd(n: int, field: Field) -> dict[int, int]:
    """Full weight distribution of the cell code by 2^N exhaustion (N <= 24).

    Walks binary words in Gray-code order, maintaining the field-valued dot
    product with the defining vector incrementally.
    """
    consts = cell_constants(n, field)
    length = consts.size
    if length > BRUTE_LENGTH_LIMIT:
        raise BudgetError(f"length {length} exceeds brute-force limit {BRUTE_LENGTH_LIMIT}")
    v = defining_vector(n, field)
    dist: dict[int, int] = {0: 1}
    s = 0
    weight = 0
    word = 0
    for u in range(1, 1 << length):
        gray = u ^ (u >> 1)
        flipped = (gray ^ word).bit_length() - 1
        word = gray
        s ^= v[flipped]
        weight += 1 if gray >> flipped & 1 else -1
        if s == 0:
            dist[weight] = dist.get(weight, 0) + 1
    return dist


def dual_enumerate(n: int, field: Field) -> list[tuple[int, int]]:
    """(a, closed-form weight) for every a, the zero codeword included."""
    return [(0, 0)] + [(a, dual_weight(n, field, a)) for a in field.units()]


# ----------------------------------------------------------------------------
# GF(2) linear algebra on bitmask rows, for the Delsarte cross-check


def _f2_rref(rows: list[int]) -> list[int]:
    """Reduced basis: distinct leading bits, each cleared from all other rows."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            pivot = row.bit_length() - 1
            basis = [b ^ row if b >> pivot & 1 else b for b in basis]
            basis.append(row)
    return sorted(basis, reverse=True)


def _f2_nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {x : x has even overlap with every row}."""
    basis = _f2_rref(rows)
    pivots = {b.bit_length() - 1 for b in basis}
    null = []
    for f in range(width):
        if f in pivots:
            continue
        x = 1 << f
        for b in basis:
            if b >> f & 1:
                x ^= 1 << (b.bit_length() - 1)
        null.append(x)
    return null


def _f2_span(basis: list[int]) -> set[int]:
    span = {0}
    for b in basis:
        span |= {v ^ b for v in span}
    return span


def delsarte_check(n: int, field: Field) -> bool:
    """Set equality of {traced dual codewords} with the brute-force dual (N <= 24).

    The code is the nullspace of the r x N bit matrix of the defining vector;
    its dual is recomputed by plain GF(2) linear algebra and compared, as
    vector sets, against the traced multiples of the defining vector.
    """
    consts = cell_constants(n, field)
    length = consts.size
    if length > BRUTE_LENGTH_LIMIT:
        raise BudgetError(f"length {length} exceeds brute-force limit {BRUTE_LENGTH_LIMIT}")
    v = defining_vector(n, field)
    mul, trace = field.mul, field.trace
    traced = {
        sum(trace(mul(a, vj)) << j for j, vj in enumerate(v)) for a in field.elements()
    }
    bit_rows = [sum((vj >> k & 1) << j for j, vj in enumerate(v)) for k in range(field.r)]
    code_basis = _f2_nullspace(bit_rows, length)
    dual_basis = _f2_nullspace(code_basis, length)
    return _f2_span(dual_basis) == traced
