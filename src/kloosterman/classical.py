"""The groups O(2n+1,q) and Sp(2n,q): forms, parabolic subgroups, Bruhat cells.

The orthogonal group acts on column vectors of length 2n+1 preserving the
quadratic form theta(x) = sum x_i x_{n+i} + x_{2n+1}^2; the symplectic group
is the 2n x 2n analogue.  Both carry a maximal parabolic subgroup P of block
upper-triangular elements, and decompose into double cosets P sigma_r P for
r = 0..n, where sigma_r swaps the first r "plus" coordinates with their
"minus" partners.

Everything here is exact and deterministic: parabolic elements and coset
transversals are generated from their parameters in a fixed lexicographic
order, and trace histograms are counted from P's Levi factor alone.  That
count enumerates no group: the trace pairs of GL(n-r,q) come from
gl_recursion, the one GL(t,q) Kloosterman recursion (ksum.kloosterman_gl
applies it to a single sum), run on Walsh-Hadamard transforms, and it reads
nothing from ksum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Iterable, Iterator

from .gf2r import Field, walsh_hadamard
from .matfq import (
    Mat,
    _dot,
    gl_iter,
    identity,
    is_invertible,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
)

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
FAMILIES = (ORTHOGONAL, SYMPLECTIC)

#: Default cap on the number of streamed group elements per enumeration.
DEFAULT_BUDGET = 10**8


class BudgetError(RuntimeError):
    """An enumeration would stream more elements than the configured budget."""


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _check_cell(n: int, r: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")


# ----------------------------------------------------------------------------
# closed-form orders


def gl_order(n: int, q: int) -> int:
    """Order of GL(n,q)."""
    return math.prod(q**n - q**j for j in range(n))


def q_binom(n: int, r: int, q: int) -> int:
    """Gaussian binomial coefficient counting r-dimensional subspaces of F_q^n."""
    _check_cell(n, r)
    num = math.prod(q ** (n - j) - 1 for j in range(r))
    den = math.prod(q ** (r - j) - 1 for j in range(r))
    if num % den:
        raise ArithmeticError(f"q-binomial ({n} {r})_{q} is not integral")
    return num // den


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
    """Number of right cosets of A_r in P."""
    _check_cell(n, r)
    return q ** math.comb(r + 1, 2) * q_binom(n, r, q)


def cell_order(n: int, r: int, q: int) -> int:
    """|P sigma_r P|, identical for the orthogonal and symplectic families."""
    _check_cell(n, r)
    return (
        q ** (n * n)
        * q_binom(n, r, q)
        * q ** math.comb(r, 2)
        * q**r
        * math.prod(q**j - 1 for j in range(1, n + 1))
    )


def dc_order(n: int, q: int) -> int:
    """|P sigma_(n-1) P| in its separate displayed product form."""
    return (
        q ** (n * (3 * n - 1) // 2)
        * q_binom(n, 1, q)
        * math.prod(q**j - 1 for j in range(1, n + 1))
    )


def alternating_count(r: int, field: Field) -> int:
    """Number of nonsingular alternating r x r matrices over the field."""
    if r < 0:
        raise ValueError("matrix size must be nonnegative")
    if r == 0:
        return 1
    if r % 2 == 1:
        return 0
    q, half = field.q, r // 2
    return q ** (half * (half - 1)) * math.prod(q ** (2 * j - 1) - 1 for j in range(1, half + 1))


def alternating_count_bruteforce(r: int, field: Field, budget: int = DEFAULT_BUDGET) -> int:
    """Count nonsingular alternating matrices by exhaustion (small r only)."""
    if r == 0:
        return 1
    total = field.q ** (r * (r - 1) // 2)
    if total > budget:
        raise BudgetError(f"{total} alternating matrices exceeds budget {budget}")
    return sum(1 for a in _triangle_iter(field, r, diagonal=False) if is_invertible(field, a))


@dataclass(frozen=True)
class GroupOrders:
    """Exact subgroup and cell orders for one (n, q)."""

    n: int
    q: int
    general_linear: int
    q_binomials: tuple[int, ...]
    parabolic: int
    stabilizers: tuple[int, ...]
    cells: tuple[int, ...]

    @property
    def group_order(self) -> int:
        return sum(self.cells)


def group_order_data(n: int, field: Field) -> GroupOrders:
    q = field.q
    return GroupOrders(
        n=n,
        q=q,
        general_linear=gl_order(n, q),
        q_binomials=tuple(q_binom(n, r, q) for r in range(n + 1)),
        parabolic=parabolic_order(n, q),
        stabilizers=tuple(stabilizer_order(n, r, q) for r in range(n + 1)),
        cells=tuple(cell_order(n, r, q) for r in range(n + 1)),
    )


# ----------------------------------------------------------------------------
# forms, membership tests, the isomorphism iota


def theta_form(field: Field, x: tuple[int, ...], n: int) -> int:
    """The quadratic form sum x_i x_(n+i) + x_(2n+1)^2 on 2n+1 coordinates."""
    if len(x) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} coordinates, got {len(x)}")
    mul = field.mul
    s = mul(x[2 * n], x[2 * n])
    for i in range(n):
        s ^= mul(x[i], x[n + i])
    return s


@cache
def jmat(n: int) -> Mat:
    """The antidiagonal block matrix defining the symplectic form (built once per n)."""
    return tuple(
        tuple(1 if j == (i + n) % (2 * n) else 0 for j in range(2 * n)) for i in range(2 * n)
    )


def is_symplectic(field: Field, w: Mat, n: int) -> bool:
    if len(w) != 2 * n or len(w[0]) != 2 * n:
        raise ValueError(f"expected a {2 * n} x {2 * n} matrix")
    return mat_mul(field, transpose(w), w[n:] + w[:n]) == jmat(n)  # J w swaps w's row halves


def symplectic_by_form(field: Field, n: int, budget: int = DEFAULT_BUDGET) -> set[Mat]:
    """Every 2n x 2n matrix w with w^T J w = J, by a column search on the form.

    The columns c_0, c_1, ... of w are chosen one at a time from F_q^(2n).
    Entry (i, k) of w^T J w is c_i^T J c_k, so it depends on columns i and k
    alone: once c_k is chosen, the entries (i, k) with i < k are final, and a
    candidate for c_k is dropped exactly when one of them differs from J.  No
    completion could repair such an entry, so every solution is found.  The
    diagonal entries c_k^T J c_k vanish for every vector (the form is
    alternating) and prune nothing.  The row c_i^T J v over all v is computed
    once per chosen c_i, so candidates are tested by index.  Each finished
    matrix is re-checked with is_symplectic; a failure raises ArithmeticError.

    The search reads the form alone, never the parabolic subgroup, sigma_r or
    a cell order, so it is an independent side against which the Bruhat cells
    can be checked.  The closed order q^(n^2) prod (q^(2j) - 1) is used only
    to refuse, with BudgetError, a group larger than budget.
    """
    q, dim = field.q, 2 * n
    size = q ** (n * n) * math.prod(q ** (2 * j) - 1 for j in range(1, n + 1))
    if size > budget:
        raise BudgetError(f"|Sp({dim},{q})| = {size} exceeds enumeration budget {budget}")
    form, mul = jmat(n), field.mul
    vectors = list(product(range(q), repeat=dim))
    # J v swaps the two halves of v, so c^T J v = _dot(c, J v)
    images = [v[n:] + v[:n] for v in vectors]
    found: set[Mat] = set()

    def extend(cols: list[tuple[int, ...]], forms: list[list[int]]) -> None:
        k = len(cols)
        if k == dim:
            w = transpose(cols)
            if not is_symplectic(field, w, n):
                raise ArithmeticError(f"column search produced a non-symplectic matrix {w}")
            found.add(w)
            return
        if cols:  # the row of the newest column; a leaf never needs one
            forms = forms + [[_dot(mul, cols[-1], image) for image in images]]
        targets = [row[k] for row in form[:k]]
        for i, v in enumerate(vectors):
            if all(f[i] == t for f, t in zip(forms, targets)):
                extend(cols + [v], forms)

    extend([], [])
    return found


def is_orthogonal(field: Field, w: Mat, n: int) -> bool:
    """Membership in the isometry group of theta, read through the form.

    With columns c_j of w, theta(wx) = sum x_j^2 theta(c_j) + sum_(j<k) x_j x_k B(c_j, c_k), where
    the polar form B(u, v) = theta(u + v) + theta(u) + theta(v) reads only the first 2n coordinates,
    on which it is J.  Putting x = e_j and e_j + e_k, theta(wx) = theta(x) for all x exactly when
    theta(c_j) = theta(e_j) and B(c_j, c_k) = B(e_j, e_k): the last column is e_(2n+1) (forced by
    B and theta(c_(2n+1)) = 1), the top-left 2n x 2n block is symplectic and theta(c_j) = 0, j < 2n.
    """
    dim = 2 * n + 1
    if len(w) != dim or len(w[0]) != dim:
        raise ValueError(f"expected a {dim} x {dim} matrix")
    if w[dim - 1][dim - 1] != 1 or any(w[i][dim - 1] for i in range(dim - 1)):
        return False
    if any(theta_form(field, c, n) for c in transpose(w)[:-1]):
        return False
    return is_symplectic(field, tuple(row[:-1] for row in w[:-1]), n)


def iota(field: Field, w: Mat, n: int) -> Mat:
    """The isomorphism onto Sp(2n,q): the top-left block, which is_orthogonal found symplectic."""
    if not is_orthogonal(field, w, n):
        raise ValueError("iota is defined on the orthogonal group only")
    return tuple(row[: 2 * n] for row in w[: 2 * n])


def _sigma_perm(n: int, r: int, dim: int) -> list[int]:
    p = list(range(dim))
    for i in range(r):
        p[i], p[n + i] = p[n + i], p[i]
    return p


def sigma_r(n: int, r: int, family: str = ORTHOGONAL) -> Mat:
    """The Weyl representative swapping the first r plus/minus coordinate pairs."""
    _check_family(family)
    _check_cell(n, r)
    dim = 2 * n + 1 if family == ORTHOGONAL else 2 * n
    perm = _sigma_perm(n, r, dim)
    return tuple(tuple(1 if j == perm[i] else 0 for j in range(dim)) for i in range(dim))


# ----------------------------------------------------------------------------
# parabolic subgroup enumeration


def _triangle_iter(field: Field, n: int, diagonal: bool) -> Iterator[Mat]:
    """All symmetric n x n matrices, lexicographic in the upper triangle.

    With diagonal=False the diagonal stays zero, which over GF(2^r) gives
    exactly the alternating matrices.
    """
    idx = [(i, j) for i in range(n) for j in range(i if diagonal else i + 1, n)]
    for vals in product(range(field.q), repeat=len(idx)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, vals):
            m[i][j] = v
            m[j][i] = v
        yield tuple(tuple(row) for row in m)


def _unipotents(field: Field, n: int, k: int, family: str) -> Iterator[tuple[Mat, tuple | None]]:
    """Parameters (b, h) of each unipotent u(b, h) supported on the first k coordinates.

    Orthogonal: b = alt + (transpose of h times h), alt alternating, alt outer
    and h inner.  Symplectic: b symmetric, h None.  Both lexicographic.
    """
    pad, zero_rows, mul = (0,) * (n - k), ((0,) * n,) * (n - k), field.mul
    hs = [None] if family == SYMPLECTIC else list(product(range(field.q), repeat=k))
    for t in _triangle_iter(field, k, diagonal=family == SYMPLECTIC):
        for h in hs:
            b = t if h is None else [
                [x ^ mul(u, v) for x, v in zip(row, h)] for row, u in zip(t, h)
            ]
            yield tuple(tuple(row) + pad for row in b) + zero_rows, None if h is None else h + pad


def _levi_rows(field: Field, a: Mat, family: str) -> tuple[Mat, Mat]:
    """a^-T and the rows (0 | a^-T | 0) shared by every element of P with Levi factor a."""
    ait = transpose(mat_inv(field, a))
    zero, tail = (0,) * len(a), (0,) if family == ORTHOGONAL else ()
    return ait, tuple(zero + row + tail for row in ait)


def _p_element(a: Mat, top: Iterable[tuple], levi: Mat, last: tuple | None) -> Mat:
    """The element of P with rows (a | top | 0), levi and, if not None, the closing row last."""
    if last is None:
        return tuple(x + y for x, y in zip(a, top)) + levi
    return tuple(x + y + (0,) for x, y in zip(a, top)) + levi + (last,)


def enumerate_parabolic(
    n: int, field: Field, family: str = ORTHOGONAL, budget: int = DEFAULT_BUDGET
) -> Iterator[Mat]:
    """Yield each element of the maximal parabolic subgroup exactly once.

    Each element is l(a) u(b, h): the Levi factor diag(a, a^-T[, 1]) times
    the unipotent factor with top rows (1 | b) and, orthogonal family only,
    last row (0 | h | 1).  The parameters run as in _unipotents, a outermost,
    which fixes the element ordering used everywhere downstream.  With a
    fixed, v -> a v is computed once on the q^n column vectors and a b is read
    off b's columns, which, like the closing row (0 | h | 1), are built once.
    """
    _check_family(family)
    count = parabolic_order(n, field.q)
    if count > budget:
        raise BudgetError(f"|P| = {count} exceeds enumeration budget {budget}")
    unipotents = [
        (transpose(b), None if h is None else (0,) * n + h + (1,))
        for b, h in _unipotents(field, n, n, family)
    ]
    for a in gl_iter(field, n):
        _, levi = _levi_rows(field, a, family)
        image = {v: mat_vec(field, a, v) for v in product(range(field.q), repeat=n)}
        for columns, last in unipotents:
            yield _p_element(a, zip(*[image[c] for c in columns]), levi, last)


# ----------------------------------------------------------------------------
# A_r, coset transversals, double cosets


def _conjugate_zero_positions(n: int, r: int, family: str) -> tuple[tuple[int, int], ...]:
    """Entry positions of w that must vanish for sigma_r w sigma_r to lie in P.

    Conjugation by sigma_r permutes rows and columns, and membership in P is
    exactly "in the group, with zero lower-left block (and zero g row in the
    orthogonal case)"; the group part is automatic for elements of P.
    """
    dim = 2 * n + 1 if family == ORTHOGONAL else 2 * n
    perm = _sigma_perm(n, r, dim)
    positions = [(perm[i], perm[j]) for i in range(n, 2 * n) for j in range(n)]
    if family == ORTHOGONAL:
        positions.extend((2 * n, perm[j]) for j in range(n))
    return tuple(positions)


@dataclass(frozen=True)
class CosetData:
    """A right-coset transversal of A_r in P, P itself in enumeration order, and the cell size."""

    parabolic: tuple[Mat, ...]
    stabilizer_order: int
    transversal: tuple[Mat, ...]

    @property
    def cell_size(self) -> int:
        return len(self.parabolic) * len(self.transversal)


def _subspace_representatives(field: Field, n: int, r: int) -> Iterator[Mat]:
    """One invertible matrix per r-dimensional subspace of F_q^n, lexicographically:
    the subspace's reduced echelon basis, then the unit rows of its non-pivot columns."""
    unit = identity(n)
    for pivots in combinations(range(n), r):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
        completion = tuple(unit[j] for j in range(n) if j not in pivots)
        for vals in product(range(field.q), repeat=len(free)):
            rows = [list(unit[p]) for p in pivots]
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield tuple(map(tuple, rows)) + completion


def coset_transversal(
    n: int, r: int, field: Field, family: str = ORTHOGONAL, budget: int = DEFAULT_BUDGET
) -> CosetData:
    """Enumerate P once; build a right-coset transversal of A_r from its parameters.

    A_r holds the l(a) u(b, h) in P with a zero top-right r x (n-r) block in a
    and (b, h) zero on the first r coordinates, so the u(b, h) l(a) with (b, h)
    supported there and one a per r-dimensional row space of a's first r rows
    are a transversal, a outermost.  Guards: |A_r| counted in P, the size, and
    no x y^-1 in A_r (evaluated on the entries that must vanish).
    """
    _check_family(family)
    q, mul = field.q, field.mul
    positions = _conjugate_zero_positions(n, r, family)
    parabolic = tuple(enumerate_parabolic(n, field, family, budget))

    a_count = sum(1 for w in parabolic if all(w[i][j] == 0 for i, j in positions))
    expected_a = stabilizer_order(n, r, q)
    if a_count != expected_a:
        raise ArithmeticError(f"|A_{r}| mismatch: counted {a_count}, formula {expected_a}")

    shifts = list(_unipotents(field, n, r, family))
    transversal = []
    for a in _subspace_representatives(field, n, r):
        ait, levi = _levi_rows(field, a, family)
        for b, h in shifts:  # u(b, h) l(a) has rows (a | b a^-T | 0), levi, (0 | h a^-T | 1)
            last = None if h is None else (0,) * n + mat_mul(field, (h,), ait)[0] + (1,)
            transversal.append(_p_element(a, mat_mul(field, b, ait), levi, last))

    expected_t = transversal_size(n, r, q)
    if len(transversal) != expected_t:
        raise ArithmeticError(f"transversal size {len(transversal)} != formula {expected_t}")
    inverse_cols = [transpose(mat_inv(field, x)) for x in transversal]
    for k, x in enumerate(transversal):
        for ycols in inverse_cols[:k]:
            if all(_dot(mul, x[i], ycols[j]) == 0 for i, j in positions):
                raise ArithmeticError(f"two representatives share a right coset of A_{r}")
    return CosetData(parabolic, a_count, tuple(transversal))


def enumerate_double_coset(
    n: int, r: int, field: Field, family: str = ORTHOGONAL, budget: int = DEFAULT_BUDGET
) -> Iterator[Mat]:
    """Stream P sigma_r P in the fixed order: transversal outer, P inner.

    Each element is p m with m = sigma_r x fixed over P, so u -> u m is computed
    once per x on the few distinct rows u of P's elements, and p m is read row by row.
    """
    data = coset_transversal(n, r, field, family, budget)
    if data.cell_size > budget:
        raise BudgetError(f"cell size {data.cell_size} exceeds budget {budget}")
    dim = 2 * n + 1 if family == ORTHOGONAL else 2 * n
    perm = _sigma_perm(n, r, dim)
    rows = tuple({u for p in data.parabolic for u in p})
    for x in data.transversal:
        m = tuple(x[perm[i]] for i in range(dim))  # sigma_r * x
        image = dict(zip(rows, mat_mul(field, rows, m)))
        for p in data.parabolic:
            yield tuple(map(image.__getitem__, p))


def enumerate_group(
    n: int, field: Field, family: str = ORTHOGONAL, budget: int = DEFAULT_BUDGET
) -> Iterator[Mat]:
    """Stream the whole group as the disjoint union of its Bruhat cells."""
    for r in range(n + 1):
        yield from enumerate_double_coset(n, r, field, family, budget)


# ----------------------------------------------------------------------------
# trace histograms by the Levi reduction


def gl_recursion(k1: list[int], t: int, q: int) -> list[int]:
    """GL(t,q) Kloosterman sums of nontrivial characters from their GL(1,q) sums W_1 = k1,
    elementwise: W_t = q^(t-1) W_1 W_(t-1) + q^(2t-2) (q^(t-1) - 1) W_(t-2), W_0 = 1."""
    if t < 0:
        raise ValueError("matrix size must be nonnegative")
    prev, cur = [1] * len(k1), (list(k1) if t else [1] * len(k1))
    for s in range(2, t + 1):
        ratio, carry = q ** (s - 1), q ** (2 * s - 2) * (q ** (s - 1) - 1)
        prev, cur = cur, [ratio * k * w1 + carry * w2 for k, w1, w2 in zip(k1, cur, prev)]
    return cur


def _trace_pair_counts(m: int, field: Field) -> list[int]:
    """g_m(gamma) = #{D in GL(m,q) : tr D + tr D^-1 = gamma}, indexed by gamma.

    No group is enumerated.  g_0 counts the empty matrix at gamma = 0 and g_1
    is counted over x in F_q^*.  From m = 2 on, the Walsh-Hadamard transform
    W_1 of g_1 holds the Kloosterman sums of every additive character, s = 0
    giving the trivial one.  gl_recursion, the recursion ksum.kloosterman_gl
    applies too, maps them to W_m, and W_m(0) = |GL(m,q)|; transforming W_m
    back gives q g_m, and the division by q is checked.  The expsum checks
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
    scaled = walsh_hadamard(walsh)
    if any(total % q for total in scaled):
        raise ArithmeticError(f"inverse transform of the GL({m},{q}) sums is not a multiple of q")
    return [total // q for total in scaled]


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
    from the Walsh-domain recursion, never from ksum.  The division by q and
    the total against cell_order are checked.  workers is accepted and
    ignored: the count runs in the calling process.
    """
    _check_family(family)
    q = field.q
    size = cell_order(n, r, q)
    unipotent = q ** math.comb(n + 1, 2)
    special = alternating_count(r, field) * q ** (r * (n - r))
    g = _trace_pair_counts(n - r, field) if special else [0] * q
    rest = (gl_order(n, q) - special * gl_order(n - r, q)) * unipotent
    if rest % q:
        raise ArithmeticError(f"equidistributed part {rest} is not a multiple of q={q}")
    cosets, shift = transversal_size(n, r, q), 1 if family == ORTHOGONAL else 0
    hist = {
        beta: cosets * (unipotent * special * g[beta ^ shift] + rest // q) for beta in range(q)
    }
    total = sum(hist.values())
    if total != size:
        raise ArithmeticError(f"histogram total {total} != cell size {size}")
    return hist
