"""Independent brute-force oracles shared by the tests.

Nothing here reuses the closed forms, recursions or form-based membership
tests it is used to check.  Field facts come from this module's own
carry-less GF(2)[x] arithmetic on the modulus alone, never from
`kloosterman.gf2r`, except where `kloosterman.matfq` multiplies:
`gl_trace_pair_counts` walks GL(m,q), `preserves_theta` maps every vector,
and `parabolic_by_products` builds P from the parameters that
`enumerate_parabolic` reads, with one `mat_mul` of a by b per element in
place of its per-unipotent row tables.
"""

import math
from fractions import Fraction
from functools import cache, reduce
from itertools import product
from operator import xor

from kloosterman.classical import (
    ORTHOGONAL,
    _levi_rows,
    _unipotents,
    coset_transversal,
    sigma_r,
    theta_form,
)
from kloosterman.gf2r import Field
from kloosterman.matfq import Mat, gl_iter, mat_inv, mat_mul, mat_trace


def all_matrices(field: Field, rows: int, cols: int):
    """All rows x cols matrices in lexicographic order of flattened entries."""
    for entries in product(range(field.q), repeat=rows * cols):
        yield tuple(entries[i * cols:(i + 1) * cols] for i in range(rows))


def preserves_theta(field: Field, w: Mat, n: int) -> bool:
    """Direct isometry check: theta(wx) = theta(x) for every vector x."""
    dim = 2 * n + 1
    for x in product(range(field.q), repeat=dim):
        column = mat_mul(field, w, tuple(zip(x)))  # w applied to x as a column
        if theta_form(field, tuple(c for (c,) in column), n) != theta_form(field, x, n):
            return False
    return True


def parabolic_by_products(n: int, field: Field, family: str):
    """Each l(a) u(b, h) of P, its rows assembled here: (a | a b) with a b from
    one mat_mul, then (0 | a^-T), each closed by a 0 and followed by
    (0 | h | 1) in the orthogonal family only.  The order is that of
    enumerate_parabolic: (b, h) as in _unipotents outermost, then a over gl_iter."""
    tail = (0,) if family == ORTHOGONAL else ()
    levis = [(a, _levi_rows(field, a, family)[1]) for a in gl_iter(field, n)]
    for b, h in _unipotents(field, n, n, family):
        last = () if h is None else ((0,) * n + h + (1,),)
        for a, levi in levis:
            top = tuple(x + y + tail for x, y in zip(a, mat_mul(field, a, b)))
            yield top + levi + last


def theta_isometries(field: Field, n: int) -> set[Mat]:
    """Every matrix with theta(wx) = theta(x) for all x, by exhaustive search.

    Depth-first over columns; a partial choice of the first k columns is
    abandoned exactly when some vector supported on those k coordinates
    already violates the isometry condition, which can never exclude a valid
    completion.  Surviving full assignments are re-checked on every vector.
    """
    dim = 2 * n + 1
    q = field.q
    mul = field.mul
    theta = {x: theta_form(field, x, n) for x in product(range(q), repeat=dim)}

    def image(cols, x):
        out = (0,) * dim
        for xi, col in zip(x, cols):
            if xi:
                out = tuple(o ^ mul(xi, ci) for o, ci in zip(out, col))
        return out

    found: set[Mat] = set()
    columns = list(product(range(q), repeat=dim))

    def extend(cols):
        k = len(cols)
        if k == dim:
            w = tuple(zip(*cols))
            if all(theta[image(cols, x)] == theta[x] for x in theta):
                found.add(w)
            return
        for col in columns:
            trial = cols + [col]
            ok = True
            for x in product(range(q), repeat=k + 1):
                if x[k] == 0:
                    continue
                padded = x + (0,) * (dim - k - 1)
                if theta[image(trial, padded)] != theta[padded]:
                    ok = False
                    break
            if ok:
                extend(trial)

    extend([])
    return found


def gl_trace_pair_counts(m: int, field: Field) -> list[int]:
    """#{D in GL(m,q) : tr D + tr D^-1 = gamma} for each gamma (m >= 1), by
    inverting every invertible m x m matrix."""
    counts = [0] * field.q
    for d in gl_iter(field, m):
        counts[mat_trace(d) ^ mat_trace(mat_inv(field, d))] += 1
    return counts


# ----------------------------------------------------------------------------
# One-shot forms of the series that `wcode` and `pmi` keep and extend


def krawtchouk_prefix(q: int, length: int, dual_weights: dict[int, int], jmax: int) -> list[int]:
    """C_j = (1/q) sum over w of dual_weights[w] * K_j(w) for j = 0..jmax, each
    Krawtchouk row run from j = 0; the division is exact or an ArithmeticError."""
    totals = [0] * (jmax + 1)
    for w, mult in dual_weights.items():
        prev, cur = 0, 1
        for j in range(jmax + 1):
            totals[j] += mult * cur
            prev, cur = cur, ((length - 2 * w) * cur - (length - j + 1) * prev) // (j + 1)
    if any(total % q for total in totals):
        raise ArithmeticError(f"character sums {totals} are not multiples of q={q}")
    return [total // q for total in totals]


def onto_alternating(h: int, tmax: int) -> list[int]:
    """t! S(h,t) for t = 0..tmax, as the alternating sum of i^h."""
    return [
        sum((-1) ** (t - i) * math.comb(t, i) * i**h for i in range(t + 1)) for t in range(tmax + 1)
    ]


def stirling_side_direct(length: int, prefix: list[int], h: int) -> Fraction:
    """Sum over j of (-1)^j prefix[j] times the sum over t of
    t! S(h,t) 2^(-t) C(length-j, t-j), j <= t <= min(h, length), as a double sum."""
    tmax = min(h, length)
    onto = onto_alternating(h, tmax)
    return sum(
        (-1) ** j
        * prefix[j]
        * sum(Fraction(onto[t] * math.comb(length - j, t - j), 2**t) for t in range(j, tmax + 1))
        for j in range(tmax + 1)
    )


# ----------------------------------------------------------------------------
# GF(2)[x] arithmetic that shares no code with Field


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def mulmod(a: int, b: int, m: int) -> int:
    p, dm = clmul(a, b), m.bit_length()
    while p.bit_length() >= dm:
        p ^= m << (p.bit_length() - dm)
    return p


def trace(a: int, m: int) -> int:
    """a + a^2 + ... + a^(2^(r-1)) modulo m, which is 0 or 1."""
    t = 0
    for _ in range(m.bit_length() - 1):
        t ^= a
        a = mulmod(a, a, m)
    return t


def product_row(a: int, m: int) -> list[int]:
    """a*y modulo m for every y of degree below deg m, by linearity in y."""
    basis = [mulmod(a, 1 << i, m) for i in range(m.bit_length() - 1)]
    row = [0] * (1 << len(basis))
    for y in range(1, len(row)):
        low = y & -y
        row[y] = row[y ^ low] ^ basis[low.bit_length() - 1]
    return row


def irreducibles(r: int) -> list[int]:
    """Every irreducible polynomial of degree r, by sieving out all products."""
    reducible = {
        clmul(f, g)
        for d in range(1, r // 2 + 1)
        for f in range(1 << d, 1 << (d + 1))
        for g in range(1 << (r - d), 1 << (r - d + 1))
    }
    return [p for p in range(1 << r, 1 << (r + 1)) if p not in reducible]


def is_primitive(m: int) -> bool:
    """Whether x has order 2^r - 1 modulo the irreducible m, by stepping its powers."""
    x, k = mulmod(2, 1, m), 1
    if x == 0:
        return False  # m = x itself
    while x != 1:
        x, k = mulmod(x, 2, m), k + 1
    return k == (1 << (m.bit_length() - 1)) - 1


@cache
def _traces_and_inverses(m: int) -> tuple[list[int], list[int]]:
    q = 1 << (m.bit_length() - 1)
    traces = [trace(x, m) for x in range(q)]
    inverses = [0] * q
    for x in range(1, q):
        # x^(q-2) by square and multiply
        inv, base, e = 1, x, q - 2
        while e:
            if e & 1:
                inv = mulmod(inv, base, m)
            base = mulmod(base, base, m)
            e >>= 1
        inverses[x] = inv
    return traces, inverses


def kloosterman_direct(m: int, a: int, c: int = 1) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x modulo m, straight from the definition."""
    traces, inverses = _traces_and_inverses(m)
    return sum(1 - 2 * traces[mulmod(c, x ^ mulmod(a, inverses[x], m), m)] for x in range(1, len(traces)))


@cache
def ktable_direct(m: int) -> dict[int, int]:
    """K(lambda; a) for every nonzero a modulo m, by the O(q^2) sum over x = 1/y."""
    traces, inverses = _traces_and_inverses(m)
    table = {}
    for a in range(1, len(traces)):
        row = product_row(a, m)
        table[a] = sum(1 - 2 * traces[inverses[y] ^ row[y]] for y in range(1, len(traces)))
    return table


def character_sum_direct(m: int, values: list[int], c: int) -> int:
    """The sum of values[x] * lambda(c x) over x modulo m."""
    traces, _ = _traces_and_inverses(m)
    row = product_row(c, m)
    return sum(v * (1 - 2 * traces[row[x]]) for x, v in enumerate(values))


def theta_character_sum(m: int, beta: int) -> int:
    """The sum of lambda(beta / (x^2 + x)) over x outside {0, 1} modulo m."""
    traces, inverses = _traces_and_inverses(m)
    return sum(
        1 - 2 * traces[mulmod(beta, inverses[mulmod(x, x, m) ^ x], m)]
        for x in range(2, len(traces))
    )


def twisted_sum(m: int, beta: int) -> int:
    """The sum of lambda(a beta) K(lambda; a) over nonzero a modulo m, K by ktable_direct."""
    traces, _ = _traces_and_inverses(m)
    return sum((1 - 2 * traces[mulmod(a, beta, m)]) * k for a, k in ktable_direct(m).items())


def symplectic_exhaustive(m: int, n: int) -> set[Mat]:
    """Every 2n x 2n matrix w over GF(2)[x]/(m) with w^T J w = J, J the
    antidiagonal block matrix, by testing all q^(4n^2) matrices.

    Entry (i, j) of w^T J w is the sum over k of c_i[k] c_j[k +- n], c the
    columns of w; products come from this module's mulmod.
    """
    q, dim = 1 << (m.bit_length() - 1), 2 * n
    table = [product_row(a, m) for a in range(q)]
    entries_of_j = [(i, j, int(j == (i + n) % dim)) for i in range(dim) for j in range(dim)]
    found = set()
    for entries in product(range(q), repeat=dim * dim):
        cols = [entries[k::dim] for k in range(dim)]
        partners = [c[n:] + c[:n] for c in cols]
        if all(
            reduce(xor, (table[x][y] for x, y in zip(cols[i], partners[j])), 0) == target
            for i, j, target in entries_of_j
        ):
            found.add(tuple(entries[i * dim:(i + 1) * dim] for i in range(dim)))
    return found


def stream_trace_histogram(n: int, r: int, field: Field, family: str) -> dict[int, int]:
    """Trace histogram of P sigma_r P by streaming every product p sigma_r x,
    x over `coset_transversal` and p over P, serially.

    For q = 2 the trace of p m is the parity of popcount(rows(p) AND columns(m));
    for larger q the products come from a table built by this module's mulmod.
    """
    data = coset_transversal(n, r, field, family)
    perm = [row.index(1) for row in sigma_r(n, r, family)]
    ms = [tuple(x[i] for i in perm) for x in data.transversal]  # sigma_r x
    q = field.q
    if q == 2:
        p_bits = [
            sum(v << k for k, v in enumerate(e for row in w for e in row)) for w in data.parabolic
        ]
        ones = 0
        for m in ms:
            m_bits = sum(v << k for k, v in enumerate(e for col in zip(*m) for e in col))
            ones += sum((p & m_bits).bit_count() & 1 for p in p_bits)
        return {0: len(p_bits) * len(ms) - ones, 1: ones}
    table = [product_row(a, field.modulus) for a in range(q)]
    dim = len(perm)
    p_sparse = [
        tuple((i * dim + j, v) for i, row in enumerate(w) for j, v in enumerate(row) if v)
        for w in data.parabolic
    ]
    counts = [0] * q
    for m in ms:
        flat = tuple(e for col in zip(*m) for e in col)
        for sp in p_sparse:
            s = 0
            for idx, a in sp:
                s ^= table[a][flat[idx]]
            counts[s] += 1
    return dict(enumerate(counts))
