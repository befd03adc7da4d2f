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
against the Kloosterman table.  One Krawtchouk kernel yields q C_0, q C_1, ...
one step of the three-term recurrence per dual weight and term, each step
run only when its term is asked for.  _dual_weights splits the multiset by the
parity of s: weight_prefix adds the two halves and runs one kernel, and the
moment recursion (pmi) keeps kernels on the halves running across orders.
Nothing here is memoized per cell.
"""

from __future__ import annotations

import warnings
from collections import Counter
from itertools import count, islice
from typing import Iterable, Iterator

from .dcsum import cell_constants, closed_histogram, dc_trace_histogram
from .gf2r import Field, walsh_hadamard
from .guards import ORTHOGONAL, _check_budget, _check_int, _exact
from .ksum import kloosterman


def dual_weight(n: int, field: Field, a: int) -> int:
    """Hamming weight of the dual codeword indexed by a, in closed form.

    a = 0 indexes the zero codeword; that degenerate weight 0 is returned
    with a warning rather than an error, since 0 legitimately indexes a dual
    codeword.  n is checked first, and only the int 0 takes that branch.
    """
    consts = cell_constants(n, field)
    if type(a) is int and a == 0:
        warnings.warn("a = 0 indexes the zero dual codeword", RuntimeWarning, stacklevel=2)
        return 0
    k = kloosterman(field, a)  # its unit guard runs before lam reads a
    return _exact(consts.scale * (consts.cofactor - field.lam(a) * k), 2, "dual weight")


def dual_kernel(n: int, field: Field) -> set[int]:
    """All a whose dual codeword is zero: the zeros of the closed-form weights."""
    return {a for a, w in dual_enumerate(n, field) if w == 0}


def distinct_dual_count(n: int, field: Field) -> int:
    """Number of distinct dual codewords: q over the kernel size, the number
    of transform entries F[s] equal to N."""
    _, even, odd = _dual_weights(field.q, closed_histogram(n, field, ORTHOGONAL))
    return field.q // (even + odd)[0]


def _dual_weights(q: int, hist: dict[int, int]) -> tuple[int, Counter[int], Counter[int]]:
    """(N, the multiset {w_s} at even s, the multiset at odd s), each counted
    from one Walsh-Hadamard transform F of the dense histogram, w_s = (N - F[s]) / 2."""
    dense = [0] * q
    for beta, count in hist.items():
        dense[beta] += count
    length = sum(dense)
    spectrum = walsh_hadamard(dense)
    even, odd = (Counter((length - f) // 2 for f in spectrum[parity::2]) for parity in (0, 1))
    return length, even, odd


def _krawtchouk(length: int, w: int) -> Iterator[int]:
    """K_0(w), K_1(w), ...: the coefficients of (1 + x)^(length - w) (1 - x)^w.

    Each value after the first is one step of the three-term recurrence
    (j + 1) K_(j+1) = (length - 2w) K_j - (length - j + 1) K_(j-1), whose
    division is exact; a step runs only when its value is asked for.
    """
    slope, prev, cur = length - 2 * w, 0, 1
    for j in count():
        yield cur
        prev, cur = cur, (slope * cur - (length - j + 1) * prev) // (j + 1)


def _krawtchouk_sums(length: int, dual_weights: Counter[int]) -> Iterator[int]:
    """The character sums q C_j = sum over w of dual_weights[w] * K_j(w), for j = 0, 1, ..."""
    mults = list(dual_weights.values())
    series = [_krawtchouk(length, w) for w in dual_weights]
    while True:
        yield sum(mult * next(values) for mult, values in zip(mults, series))


def _divided(q: int, sums: Iterable[int], jmax: int) -> list[int]:
    """The sums at j = 0..jmax, each divided by q through _exact."""
    _check_int("jmax", jmax)
    totals = enumerate(islice(sums, jmax + 1))
    return [_exact(total, q, f"sum at j={j}, q={q}") for j, total in totals]


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
    bad = [
        (beta, count)
        for beta, count in hist.items()
        if not (type(beta) is int and type(count) is int and 0 <= beta < q and count >= 0)
    ]
    if bad:
        raise ValueError(f"histogram entries {bad} are not int counts >= 0 of elements of GF({q})")
    length, even, odd = _dual_weights(q, hist)
    return _divided(q, _krawtchouk_sums(length, even + odd), jmax)


def weight_prefix_closed(
    n: int, field: Field, jmax: int, family: str = ORTHOGONAL
) -> list[int]:
    """Weight prefix of the cell code, from its closed-form histogram."""
    return weight_prefix(field, closed_histogram(n, field, family), jmax)


def defining_vector(n: int, field: Field) -> list[int]:
    """Traces of the cell elements, one per element, in increasing order.

    code_bruteforce_wd and delsarte_check depend only on the multiset of these
    traces: permuting the coordinates permutes every codeword and dual word
    alike, so weights and set equality are unchanged by the order.
    """
    hist = dc_trace_histogram(n, n - 1, field, ORTHOGONAL)
    return [beta for beta, count in sorted(hist.items()) for _ in range(count)]


def _brute_force_vector(n: int, field: Field) -> list[int]:
    """defining_vector of a cell code whose 2^N words fit the budget, else BudgetError."""
    length = cell_constants(n, field).size
    _check_budget(1 << length, f"binary words of length {length}")
    return defining_vector(n, field)


def code_bruteforce_wd(n: int, field: Field) -> dict[int, int]:
    """Full weight distribution of the cell code by 2^N exhaustion (N <= 26).

    Walks binary words in Gray-code order, maintaining the field-valued dot
    product with the defining vector incrementally.  The word at step u is
    gray(u) = u ^ (u >> 1), which differs from gray(u - 1) only in the lowest
    set bit of u; its weight is read off gray(u) when the dot product is 0.
    """
    v = _brute_force_vector(n, field)
    dist: dict[int, int] = {0: 1}
    s = 0
    for u in range(1, 1 << len(v)):
        s ^= v[(u & -u).bit_length() - 1]
        if s == 0:
            weight = (u ^ (u >> 1)).bit_count()
            dist[weight] = dist.get(weight, 0) + 1
    return dist


def dual_enumerate(n: int, field: Field) -> list[tuple[int, int]]:
    """(a, closed-form weight) for every a, the zero codeword included."""
    return [(0, 0)] + [(a, dual_weight(n, field, a)) for a in field.units()]


def delsarte_check(n: int, field: Field) -> bool:
    """Set equality of {traced dual codewords} with the brute-force dual (N <= 26).

    The code is the kernel of the r x N bit matrix of the defining vector, so
    its dual is that matrix's row space, spanned here and compared, as a
    vector set, with the traced multiples of the defining vector.  The
    equality holds for every vector, since a -> tr(a x) runs over every
    F_2-linear functional: it exercises the field's product and trace form,
    not the cell.
    """
    v = _brute_force_vector(n, field)
    mul, trace = field.mul, field.trace
    traced = {
        sum(trace(mul(a, vj)) << j for j, vj in enumerate(v)) for a in field.elements()
    }
    bit_rows = [sum((vj >> k & 1) << j for j, vj in enumerate(v)) for k in range(field.r)]
    span = {0}
    for row in bit_rows:
        span |= {w ^ row for w in span}
    return span == traced
