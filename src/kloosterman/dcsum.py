"""Every closed count of the Bruhat cells P sigma_r P of O(2n+1,q) and
Sp(2n,q), with no matrix built: the subgroup and cell orders, the character
sums, and exact trace histograms.  The explicit groups in classical are an
oracle for these facts, loaded only where something enumerates.

The distinguished cell is P sigma_(n-1) P for odd n.  Its size factors as
scale * cofactor, where scale is the multiplier carrying the Kloosterman sum
in the cell's character sum and cofactor the complementary factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf2r import Field, walsh_hadamard
from .guards import (
    ORTHOGONAL, _check_cell, _check_family, _check_int, _check_odd, _exact, _require_units, _show
)
from .ksum import gl_recursion, kloosterman, kloosterman_gl


# ----------------------------------------------------------------------------
# closed-form orders


def gl_order(n: int, q: int) -> int:
    """Order of GL(n,q); GL(0,q) is the trivial group."""
    _check_int("n", n)
    return math.prod(q**n - q**j for j in range(n))


def q_binom(n: int, r: int, q: int) -> int:
    """Gaussian binomial coefficient counting r-dimensional subspaces of F_q^n."""
    _check_cell(n, r)
    num = math.prod(q ** (n - j) - 1 for j in range(r))
    den = math.prod(q ** (r - j) - 1 for j in range(r))
    return _exact(num, den, "q-binomial")


def parabolic_order(n: int, q: int) -> int:
    """|P(2n+1,q)| = |P'(2n,q)| = q^binom(n+1,2) * |GL(n,q)|."""
    return q ** math.comb(n + 1, 2) * gl_order(n, q)


def stabilizer_order(n: int, r: int, q: int) -> int:
    """Order of A_r = P intersected with its sigma_r-conjugate."""
    _check_cell(n, r)
    # r*(2n-3r-1) is always even; the combined exponent is >= 0 on 0 <= r <= n
    exponent = math.comb(n + 1, 2) + r * (2 * n - 3 * r - 1) // 2
    return gl_order(r, q) * gl_order(n - r, q) * q**exponent


def transversal_size(n: int, r: int, q: int) -> int:
    """Number of right cosets of A_r in P; q_binom checks n and r."""
    return q_binom(n, r, q) * q ** math.comb(r + 1, 2)


def cell_order(n: int, r: int, q: int) -> int:
    """|P sigma_r P|, identical for the orthogonal and symplectic families; q_binom checks n, r."""
    return (
        q_binom(n, r, q)
        * q ** (n * n)
        * q ** math.comb(r, 2)
        * q**r
        * math.prod(q**j - 1 for j in range(1, n + 1))
    )


def dc_order(n: int, q: int) -> int:
    """|P sigma_(n-1) P| in its separate displayed product form."""
    _check_int("n", n, 1)
    return (
        q ** (n * (3 * n - 1) // 2)
        * q_binom(n, 1, q)
        * math.prod(q**j - 1 for j in range(1, n + 1))
    )


def alternating_count(r: int, field: Field) -> int:
    """Number of nonsingular alternating r x r matrices over the field."""
    _check_int("r", r)
    if r % 2 == 1:
        return 0
    q, half = field.q, r // 2
    return q ** (half * (half - 1)) * math.prod(q ** (2 * j - 1) - 1 for j in range(1, half + 1))



@dataclass(frozen=True)
class GroupOrders:
    """Exact subgroup and cell orders for one (n, q)."""

    general_linear: int
    parabolic: int
    stabilizers: tuple[int, ...]
    cells: tuple[int, ...]

    @property
    def group_order(self) -> int:
        return sum(self.cells)


def group_order_data(n: int, field: Field) -> GroupOrders:
    q = field.q
    return GroupOrders(
        general_linear=gl_order(n, q),
        parabolic=parabolic_order(n, q),
        stabilizers=tuple(stabilizer_order(n, r, q) for r in range(n + 1)),
        cells=tuple(cell_order(n, r, q) for r in range(n + 1)),
    )


# ----------------------------------------------------------------------------
# the distinguished cell in closed form


@dataclass(frozen=True)
class CellConstants:
    """The two factors of |P sigma_(n-1) P| for odd n."""

    scale: int
    cofactor: int

    @property
    def size(self) -> int:
        return self.scale * self.cofactor


def cell_constants(n: int, field: Field) -> CellConstants:
    """Exact evaluation of the two size factors; empty products at n=1."""
    _check_odd(n)
    q = field.q
    scale = (
        q ** ((5 * n * n - 1) // 4)
        * q_binom(n, 1, q)
        * math.prod(q ** (2 * j - 1) - 1 for j in range(1, (n - 1) // 2 + 1))
    )
    cofactor = (
        q ** ((n - 1) ** 2 // 4)
        * (q**n - 1)
        * math.prod(q ** (2 * j) - 1 for j in range(1, (n - 1) // 2 + 1))
    )
    return CellConstants(scale=scale, cofactor=cofactor)


def expsum_closed(n: int, r: int, field: Field, c: int = 1) -> int:
    """Character sum of lambda(c * Tr w) over P sigma_r P, in closed form.

    Zero for odd r; for even r a power-of-q prefactor times a q-binomial,
    an odd-exponent product, and the GL(n-r) Kloosterman sum at argument 1.
    """
    _check_cell(n, r)
    _require_units(field, c=c)
    if r % 2 == 1:
        return 0
    q = field.q
    prefactor = (
        field.lam(c)
        * q ** (math.comb(n + 1, 2) + r * n - r * r // 4)
        * q_binom(n, r, q)
        * math.prod(q ** (2 * j - 1) - 1 for j in range(1, r // 2 + 1))
    )
    return prefactor * kloosterman_gl(field, n - r, 1, c)


def expsum_dc(n: int, field: Field, c: int = 1) -> int:
    """Character sum over the distinguished cell: lambda(c) * scale * K(lambda; c).

    This is the r = n-1 specialization of expsum_closed; both routes are kept
    and their equality is a tested property.
    """
    _require_units(field, c=c)
    consts = cell_constants(n, field)
    return field.lam(c) * consts.scale * kloosterman(field, c)


def closed_histogram(n: int, field: Field, family: str = ORTHOGONAL) -> dict[int, int]:
    """Dense trace histogram beta -> count of the distinguished cell, in closed form.

    Each count is (size + scale * bump) / q.  The symplectic special slot is
    gamma = beta = 0 (bump 1); elsewhere bump is q + 1 or 1 - q as tr(1/gamma)
    is 0 or 1.  The orthogonal histogram is the symplectic one shifted by the
    trace of iota, gamma = beta + 1, so its special slot beta = 1 is exclusive.
    Checks the two structural facts downstream code relies on: the counts
    sum to the cell size, and the field-weighted sum of traces vanishes.
    """
    _check_family(family)
    q = field.q
    consts = cell_constants(n, field)
    base, unit = _exact(consts.size, q, "cell size"), _exact(consts.scale, q, "cell scale")
    shift = 1 if family == ORTHOGONAL else 0
    hist = {}
    for beta in field.elements():
        gamma = beta ^ shift
        bump = 1 if gamma == 0 else 1 - q if field.trace(field.inv(gamma)) else q + 1
        hist[beta] = base + unit * bump
    if sum(hist.values()) != consts.size:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={q}) misses the cell size")
    weighted = 0
    for beta, k in hist.items():
        if k & 1:
            weighted ^= beta
    if weighted:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={q}) has nonzero trace sum")
    return hist


# ----------------------------------------------------------------------------
# trace histograms by the Levi reduction


def _trace_pair_counts(m: int, field: Field) -> list[int]:
    """g_m(gamma) = #{D in GL(m,q) : tr D + tr D^-1 = gamma}, indexed by gamma.

    No group is enumerated.  g_0 counts the empty matrix at gamma = 0 and g_1
    is counted over x in F_q^*.  From m = 2 on, the Walsh-Hadamard transform
    W_1 of g_1 holds the Kloosterman sums of every additive character, s = 0
    giving the trivial one.  ksum.gl_recursion, the recursion kloosterman_gl
    applies too, maps them to W_m, and W_m(0) = |GL(m,q)|; transforming W_m
    back gives q g_m, divided by q exactly (_exact).  The expsum checks
    with n - r >= 2 therefore share gl_recursion with their closed side; the
    brute-force count in the tests anchors it.  Cost: O(m q + q log q).
    """
    q = field.q
    counts = [0] * q
    if m == 0:
        counts[0] = 1
        return counts
    for x in field.units():
        counts[x ^ field.inv(x)] += 1
    if m == 1:
        return counts
    walsh = gl_recursion(walsh_hadamard(counts), m, q)
    walsh[0] = gl_order(m, q)
    return [_exact(total, q, "GL trace-pair count") for total in walsh_hadamard(walsh)]


def dc_trace_histogram(
    n: int, r: int, field: Field, family: str = ORTHOGONAL, *, workers: int = 1
) -> dict[int, int]:
    """Trace histogram of the double coset P sigma_r P, a dense map beta -> count.

    Counted without enumerating the cell, from two exact facts:

    - Conjugation: Tr(p1 sigma_r p2) = Tr(sigma_r p2 p1), and (p1, p2) -> p2 p1
      is |A_r|-to-one onto P, so the cell's histogram is |T| times that of
      Tr(sigma_r p) over p in P, with |T| = |A_r \\ P| = transversal_size.
    - Uniformity over the unipotent radical: with p = l(a) u(b, h),
      Tr(sigma_r p) is affine in b (in the orthogonal case its h part is a
      square), so it is equidistributed over F_q unless a = [[A, 0], [C, D]]
      with A a nonsingular alternating r x r matrix.  Those a number
      S * |GL(n-r,q)|, S = alternating_count(r) * q^(r(n-r)), and for them the
      trace is tr D + tr D^-1, plus 1 from the last diagonal entry in the
      orthogonal case.

    With U = q^binom(n+1,2) and g_m as in _trace_pair_counts,
    hist[beta] = |T| (U S g_(n-r)(beta + eps) + (|GL(n,q)| - S |GL(n-r,q)|) U / q),
    eps = 1 (orthogonal) or 0 (symplectic).  No group is enumerated: g_m comes
    from the Walsh-domain recursion, never from a Kloosterman sum.  The
    division by q and the total against cell_order are checked.  workers is
    accepted and ignored: the count runs in the calling process.
    """
    _check_family(family)
    q = field.q
    size = cell_order(n, r, q)
    unipotent = q ** math.comb(n + 1, 2)
    special = alternating_count(r, field) * q ** (r * (n - r))
    g = _trace_pair_counts(n - r, field) if special else [0] * q
    rest = (gl_order(n, q) - special * gl_order(n - r, q)) * unipotent
    rest = _exact(rest, q, "equidistributed part")
    cosets, shift = transversal_size(n, r, q), 1 if family == ORTHOGONAL else 0
    hist = {beta: cosets * (unipotent * special * g[beta ^ shift] + rest) for beta in range(q)}
    total = sum(hist.values())
    if total != size:
        raise ArithmeticError(f"histogram total {_show(total)} != cell size {_show(size)}")
    return hist
