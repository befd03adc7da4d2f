"""Binary codes cut out by double-coset trace vectors, their duals, and
exact weight-distribution prefixes.

The code of a cell is the set of binary words orthogonal (in the field) to
the vector of element traces.  Dual codewords arise by tracing multiples a
of the defining vector, with closed-form Hamming weights w_a.  The additive
characters count the codewords of weight j as C_j = (1/q) sum_a [x^j]
(1 + x)^(N - w_a) (1 - x)^(w_a).  As a runs over the field, beta -> tr(a beta)
runs over every F_2-linear functional, so the multiset {w_a} is
{(N - F[s]) / 2} for F the Walsh-Hadamard transform of the dense trace
histogram: one O(q log q) pass of additions, with no field product or trace.
weight_prefix reads the w_a from the histogram alone, not from the
Kloosterman closed form, since the moments derived from C_j are checked
against the Kloosterman table; weight_prefix_closed keeps each cell's
multiset, so the recursion transforms each cell once.
"""

from __future__ import annotations

import warnings
from collections import Counter

from .classical import ORTHOGONAL, BudgetError, dc_trace_histogram
from .dcsum import cell_constants, closed_histogram
from .gf2r import Field, walsh_hadamard
from .ksum import kloosterman

#: Largest code length for which 2^N brute force is allowed.
BRUTE_LENGTH_LIMIT = 24

# (n, r, modulus, family) -> (N, ((w, multiplicity), ...)) of the cell's dual weights
_DUAL_MEMO: dict[tuple[int, int, int, str], tuple[int, tuple[tuple[int, int], ...]]] = {}


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


def dual_kernel(n: int, field: Field) -> set[int]:
    """All a whose dual codeword is zero: the zeros of the closed-form weights."""
    return {a for a, w in dual_enumerate(n, field) if w == 0}


def distinct_dual_count(n: int, field: Field) -> int:
    """Number of distinct dual codewords: q over the kernel size, the number
    of transform entries F[s] equal to N."""
    return field.q // dict(_cell_dual_weights(n, field, ORTHOGONAL)[1])[0]


def _dual_weights(q: int, hist: dict[int, int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(N, sorted (w, multiplicity) pairs) of the multiset {w_a}, from one
    Walsh-Hadamard transform of the dense histogram."""
    dense = [0] * q
    for beta, count in hist.items():
        dense[beta] += count
    length = sum(dense)
    weights = Counter((length - f) // 2 for f in walsh_hadamard(dense))
    return length, tuple(sorted(weights.items()))


def _cell_dual_weights(
    n: int, field: Field, family: str
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """_dual_weights of the cell's closed-form histogram, kept per cell."""
    key = (n, field.r, field.modulus, family)
    cached = _DUAL_MEMO.get(key)
    if cached is None:
        cached = _DUAL_MEMO[key] = _dual_weights(field.q, closed_histogram(n, field, family))
    return cached


def _krawtchouk_prefix(
    q: int, length: int, dual_weights: tuple[tuple[int, int], ...], jmax: int
) -> list[int]:
    """C_j = (1/q) sum over (w, mult) of mult * K_j(w) for j = 0..jmax, with
    K_j = [x^j] (1 + x)^(length - w) (1 - x)^w; the division is exact or an
    ArithmeticError."""
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    totals = [0] * (jmax + 1)
    for w, mult in dual_weights:
        # the Krawtchouk values are all integers, by
        # (j + 1) K_(j+1) = (N - 2w) K_j - (N - j + 1) K_(j-1)
        prev, cur = 0, 1
        for j in range(jmax + 1):
            totals[j] += mult * cur
            prev, cur = cur, ((length - 2 * w) * cur - (length - j + 1) * prev) // (j + 1)
    inexact = [j for j, total in enumerate(totals) if total % q]
    if inexact:
        raise ArithmeticError(f"character sums at weights {inexact} are not multiples of q={q}")
    return [total // q for total in totals]


def weight_prefix(field: Field, hist: dict[int, int], jmax: int) -> list[int]:
    """Exact codeword counts by weight, for weights 0..jmax.

    The code has N = sum(hist) coordinates, hist[beta] of them carrying beta;
    a word is a codeword when the betas it selects sum to 0.  With w_a the
    weight of dual word a, the additive characters give
    C_j = (1/q) sum_a [x^j] (1 + x)^(N - w_a) (1 - x)^(w_a), and the division
    is exact or an ArithmeticError.  The multiset {w_a} is {(N - F[s]) / 2}
    for F the Walsh-Hadamard transform of hist made dense, since the trace
    form is nondegenerate; it reads hist alone.  Taken from the Kloosterman
    closed form (dual_weight), the w_a would make the recursion's check
    against the direct moments circular.
    """
    q = field.q
    bad = [(beta, count) for beta, count in hist.items() if not 0 <= beta < q or count < 0]
    if bad:
        raise ValueError(f"histogram entries {bad} are not counts >= 0 of elements of GF({q})")
    return _krawtchouk_prefix(q, *_dual_weights(q, hist), jmax)


def weight_prefix_closed(
    n: int, field: Field, jmax: int, family: str = ORTHOGONAL
) -> list[int]:
    """Weight prefix of the cell code from its closed-form histogram; the
    dual-weight multiset is computed once per cell and kept."""
    return _krawtchouk_prefix(field.q, *_cell_dual_weights(n, field, family), jmax)


def defining_vector(n: int, field: Field) -> list[int]:
    """Traces of the cell elements, one per element, in increasing order.

    code_bruteforce_wd and delsarte_check depend only on the multiset of these
    traces: permuting the coordinates permutes every codeword and dual word
    alike, so weights and set equality are unchanged by the order.
    """
    hist = dc_trace_histogram(n, n - 1, field, ORTHOGONAL)
    return [beta for beta, count in sorted(hist.items()) for _ in range(count)]


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
