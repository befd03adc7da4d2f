"""The groups O(2n+1,q) and Sp(2n,q) as explicit matrices: forms, parabolic
subgroups, Bruhat cells.

The orthogonal group acts on column vectors of length 2n+1 preserving the
quadratic form theta(x) = sum x_i x_{n+i} + x_{2n+1}^2; the symplectic group
is the 2n x 2n analogue.  Both carry a maximal parabolic subgroup P of block
upper-triangular elements, and decompose into double cosets P sigma_r P for
r = 0..n, where sigma_r swaps the first r "plus" coordinates with their
"minus" partners.

This is the one library module that builds matrices (through matfq).  It is
an oracle for the closed counts in dcsum, which the recursion reads: P and
the coset transversals are generated from their parameters in a fixed
lexicographic order and checked against dcsum's orders, and the two
brute-force counts check alternating_count and ksum.kloosterman_gl.  Every
enumeration is exact, deterministic and capped by guards.DEFAULT_BUDGET.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, product, repeat
from operator import itemgetter
from typing import Iterator

from .dcsum import cell_order, parabolic_order, stabilizer_order, transversal_size
from .dcsum import dc_trace_histogram  # noqa: F401  bound only because perfbench/ imports it from here
from .gf2r import Field
from .guards import (
    ORTHOGONAL, SYMPLECTIC, _check_budget, _check_cell, _check_family, _check_int, _require_units
)
from .matfq import Mat, _dot, gl_iter, identity, mat_inv, mat_mul, mat_trace, row_images, transpose


# ----------------------------------------------------------------------------
# brute-force counts


def alternating_count_bruteforce(r: int, field: Field) -> int:
    """Count nonsingular alternating matrices by exhaustion (small r only).

    det = Pf^2, so a matrix counts exactly when its Pfaffian is nonzero.  Each
    matrix is its upper triangle, and all q^(r(r-1)/2) of them are run through,
    odd r included.  The Pfaffian is the sum, over the perfect matchings of
    0..r-1, of the products of the matched entries: the expansion along the
    first row, flattened, with no signs in characteristic 2.  The matchings
    are listed once, as triangle positions, so no matrix is built.
    """
    _check_int("r", r)
    triangle = {(i, j): k for k, (i, j) in enumerate(combinations(range(r), 2))}
    total = field.q ** len(triangle)
    _check_budget(total, f"alternating {r} x {r} matrices over GF({field.q})")
    matchings = [[triangle[pair] for pair in m] for m in _matchings(tuple(range(r)))]
    mul, count = field.mul, 0
    for entries in product(range(field.q), repeat=len(triangle)):
        pfaffian = 0
        for matching in matchings:
            term = 1
            for k in matching:
                term = entries[k] if term == 1 else mul(term, entries[k])
                if not term:
                    break
            pfaffian ^= term
        count += pfaffian != 0
    return count


def _matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every perfect matching of points, as pairs (i, j) with i < j for sorted
    points: the first point paired with each other one in turn.  An odd
    number of points has none."""
    if not points:
        yield ()
        return
    i, rest = points[0], points[1:]
    for k, j in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1 :]):
            yield ((i, j),) + m


def kloosterman_gl_bruteforce(field: Field, t: int, c: int = 1) -> dict[int, int]:
    """Direct sums of lambda(c*(Tr w + a Tr w^-1)) over all invertible t x t w, for every unit a.

    Each w is inverted once; the sums are read from the counts of (Tr w, Tr w^-1).
    """
    _require_units(field, c=c)
    _check_int("t", t)
    _check_budget(field.q ** (t * t), f"candidate {t} x {t} matrices over GF({field.q})")
    pairs = Counter((mat_trace(w), mat_trace(mat_inv(field, w))) for w in gl_iter(field, t))
    mul, lam = field.mul, field.lam
    return {
        a: sum(n * lam(mul(c, u ^ mul(a, v))) for (u, v), n in pairs.items())
        for a in field.units()
    }


# ----------------------------------------------------------------------------
# forms, membership tests, the isomorphism iota


def theta_form(field: Field, x: tuple[int, ...], n: int) -> int:
    """The quadratic form sum x_i x_(n+i) + x_(2n+1)^2 on 2n+1 coordinates."""
    if len(x) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} coordinates, got {len(x)}")
    return field.mul(x[2 * n], x[2 * n]) ^ _dot(field.mul, x[:n], x[n : 2 * n])


@cache
def jmat(n: int) -> Mat:
    """The antidiagonal block matrix defining the symplectic form (built once per n)."""
    return tuple(
        tuple(1 if j == (i + n) % (2 * n) else 0 for j in range(2 * n)) for i in range(2 * n)
    )


def _preserves_form(field: Field, w_t: Mat, w: Mat, n: int) -> bool:
    """w^T J w == J for a 2n x 2n w given with its transpose; J w swaps w's row halves."""
    return mat_mul(field, w_t, w[n:] + w[:n]) == jmat(n)


def is_symplectic(field: Field, w: Mat, n: int) -> bool:
    _check_int("n", n, 1)
    if len(w) != 2 * n or set(map(len, w)) != {2 * n}:
        raise ValueError(f"expected a {2 * n} x {2 * n} matrix")
    return _preserves_form(field, tuple(zip(*w)), w, n)


def symplectic_by_form(field: Field, n: int) -> set[Mat]:
    """Every 2n x 2n matrix w with w^T J w = J, by a column search on the form.

    The columns c_0, c_1, ... of w are chosen one at a time from F_q^(2n).
    Entry (i, k) of w^T J w is c_i^T J c_k, so it depends on columns i and k
    alone: once c_k is chosen, the entries (i, k) with i < k are final, and a
    candidate for c_k is dropped exactly when one of them differs from J.  No
    completion could repair such an entry, so every solution is found.  The
    diagonal entries c_k^T J c_k vanish for every vector (the form is
    alternating) and prune nothing.

    The form is evaluated once per pair of vectors, q^(4n) times in all; at
    n = 1 these are the pairs (c_0, v) that any search must test for c_1.
    J's entries are 0 and 1 only, so each vector c keeps just two
    bitmasks over the vectors v: those with c^T J v = 0 and those with
    c^T J v = 1, 2 q^(4n) bits in all.  The candidates for c_k are the AND of
    the masks the chosen columns select by J's column k.  Each finished
    matrix is re-checked with is_symplectic; a failure raises ArithmeticError.

    The search reads the form alone, never the parabolic subgroup, sigma_r or
    a cell order, so it is an independent side against which the Bruhat cells
    can be checked.  The closed order q^(n^2) prod (q^(2j) - 1) is used only
    to refuse, with BudgetError, a group larger than DEFAULT_BUDGET.
    """
    _check_int("n", n, 1)
    q, dim = field.q, 2 * n
    size = q ** (n * n) * math.prod(q ** (2 * j) - 1 for j in range(1, n + 1))
    _check_budget(size, f"elements of Sp({dim},{q})")
    form, mul = jmat(n), field.mul
    vectors = list(product(range(q), repeat=dim))
    # J v swaps the two halves of v, so c^T J v = _dot(c, J v)
    images = [v[n:] + v[:n] for v in vectors]
    masks = []  # masks[c][t] has bit v set when c^T J v = t
    for c in vectors:
        # the last vector's value is the first binary digit, so bit v is vector v
        values = [_dot(mul, c, image) for image in reversed(images)]
        masks.append(tuple(int("".join("01"[x == t] for x in values), 2) for t in (0, 1)))
    everything = (1 << len(vectors)) - 1
    found: set[Mat] = set()

    def extend(cols: list[int]) -> None:
        k = len(cols)
        if k == dim:
            w = transpose([vectors[c] for c in cols])
            if not is_symplectic(field, w, n):
                raise ArithmeticError(f"column search produced a non-symplectic matrix {w}")
            found.add(w)
            return
        candidates = everything
        for c, row in zip(cols, form):
            candidates &= masks[c][row[k]]
        while candidates:
            low = candidates & -candidates
            extend(cols + [low.bit_length() - 1])
            candidates ^= low

    extend([])
    return found


def is_orthogonal(field: Field, w: Mat, n: int) -> bool:
    """Membership in the isometry group of theta, read through the form.

    With columns c_j of w, theta(wx) = sum x_j^2 theta(c_j) + sum_(j<k) x_j x_k B(c_j, c_k), where
    the polar form B(u, v) = theta(u + v) + theta(u) + theta(v) reads only the first 2n coordinates,
    on which it is J.  Putting x = e_j and e_j + e_k, theta(wx) = theta(x) for all x exactly when
    theta(c_j) = theta(e_j) and B(c_j, c_k) = B(e_j, e_k): the last column is e_(2n+1) (forced by
    B and theta(c_(2n+1)) = 1), the top-left 2n x 2n block is symplectic and theta(c_j) = 0, j < 2n.
    """
    _check_int("n", n, 1)
    dim = 2 * n + 1
    if len(w) != dim or set(map(len, w)) != {dim}:
        raise ValueError(f"expected a {dim} x {dim} matrix")
    *cols, last = zip(*w)
    if last != (0,) * (dim - 1) + (1,):
        return False
    mul = field.mul
    if any(mul(c[-1], c[-1]) ^ _dot(mul, c[:n], c[n:-1]) for c in cols):  # theta(c_j) != 0
        return False
    return _preserves_form(field, [c[:-1] for c in cols], [row[:-1] for row in w[:-1]], n)


def iota(field: Field, w: Mat, n: int) -> Mat:
    """The isomorphism onto Sp(2n,q): the top-left block, which is_orthogonal found symplectic."""
    if not is_orthogonal(field, w, n):
        raise ValueError("iota is defined on the orthogonal group only")
    return tuple(row[: 2 * n] for row in w[: 2 * n])


def _sigma_perm(n: int, r: int, family: str) -> list[int]:
    """Row i of sigma_r has its 1 in column p[i]; len(p) is the family's matrix size."""
    p = list(range(2 * n + 1 if family == ORTHOGONAL else 2 * n))
    for i in range(r):
        p[i], p[n + i] = p[n + i], p[i]
    return p


def sigma_r(n: int, r: int, family: str = ORTHOGONAL) -> Mat:
    """The Weyl representative swapping the first r plus/minus coordinate pairs."""
    _check_family(family)
    _check_cell(n, r)
    perm = _sigma_perm(n, r, family)
    return tuple(map(identity(len(perm)).__getitem__, perm))  # row i is e_perm[i]


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


def enumerate_parabolic(n: int, field: Field, family: str = ORTHOGONAL) -> Iterator[Mat]:
    """Yield each element of the maximal parabolic subgroup exactly once.

    Each element is l(a) u(b, h): the Levi factor diag(a, a^-T[, 1]) times
    the unipotent factor with top rows (1 | b) and, orthogonal family only,
    last row (0 | h | 1).  (b, h) runs as in _unipotents, outermost, and a
    as in gl_iter inside it; this order is used everywhere downstream.  One
    list holds the last row (0 | h | 1), the images u (1 | b | 0) of all q^n
    vectors u, both rewritten per unipotent, and every Levi factor's rows;
    each element is one itemgetter, built once per a, read off that list, so
    row i of the top block is a_i (1 | b | 0).  Streaming P holds the list
    and the itemgetters, O(q^n + |GL(n,q)|), never O(|P|).
    """
    _check_family(family)
    _check_int("n", n, 1)
    q = field.q
    _check_budget(parabolic_order(n, q), f"elements of P({n},{q})")
    tail = (0,) if family == ORTHOGONAL else ()
    vectors = list(product(range(q), repeat=n))
    index = dict(zip(vectors, range(1, 1 + len(vectors))))
    rows: list = [None] * (1 + len(vectors))  # (0 | h | 1), u (1 | b | 0) per vector u, Levi rows
    last = (0,) if family == ORTHOGONAL else ()  # the index of (0 | h | 1), if P has that row
    getters = []
    for a in gl_iter(field, n):
        levi = range(len(rows), len(rows) + n)
        rows.extend(_levi_rows(field, a, family)[1])
        getters.append(itemgetter(*map(index.__getitem__, a), *levi, *last))
    for b, h in _unipotents(field, n, n, family):
        top = tuple(e + row + tail for e, row in zip(identity(n), b))
        rows[0] = None if h is None else (0,) * n + h + (1,)
        rows[1 : 1 + len(vectors)] = mat_mul(field, vectors, top)
        for get in getters:
            yield get(rows)


# ----------------------------------------------------------------------------
# A_r, coset transversals, double cosets


def _conjugate_zero_positions(n: int, r: int, family: str) -> tuple[tuple[int, int], ...]:
    """Entry positions of w that must vanish for sigma_r w sigma_r to lie in P.

    Conjugation by sigma_r permutes rows and columns, and membership in P is
    exactly "in the group, with zero lower-left block (and zero g row in the
    orthogonal case)"; the group part is automatic for elements of P.
    """
    perm = _sigma_perm(n, r, family)
    positions = [(perm[i], perm[j]) for i in range(n, 2 * n) for j in range(n)]
    if family == ORTHOGONAL:
        positions.extend((2 * n, perm[j]) for j in range(n))
    return tuple(positions)


@dataclass(frozen=True)
class CosetData:
    """A right-coset transversal of A_r in P, and P itself in enumeration order."""

    parabolic: tuple[Mat, ...]
    transversal: tuple[Mat, ...]


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


def coset_transversal(n: int, r: int, field: Field, family: str = ORTHOGONAL) -> CosetData:
    """Enumerate P once; build a right-coset transversal of A_r from its parameters.

    A_r holds the l(a) u(b, h) in P with a zero top-right r x (n-r) block in a
    and (b, h) zero on the first r coordinates, so the u(b, h) l(a) with (b, h)
    supported there and one a per r-dimensional row space of a's first r rows
    are a transversal, a outermost.  Guards: |A_r| counted in P, the size, and
    no x y^-1 in A_r (evaluated on the entries that must vanish).
    """
    _check_cell(n, r)  # enumerate_parabolic checks n >= 1 and the family
    q, mul = field.q, field.mul
    positions = _conjugate_zero_positions(n, r, family)
    parabolic = tuple(enumerate_parabolic(n, field, family))

    zero_cols: dict[int, list[int]] = {}
    for i, j in positions:
        zero_cols.setdefault(i, []).append(j)
    members = parabolic  # narrowed one constrained row index at a time
    for i, cols in zero_cols.items():  # P's elements share rows: judge each distinct row once
        row_i = itemgetter(i)
        passing = {u for u in set(map(row_i, members)) if not any(u[j] for j in cols)}
        members = list(compress(members, map(passing.__contains__, map(row_i, members))))
    expected_a = stabilizer_order(n, r, q)
    if len(members) != expected_a:
        raise ArithmeticError(f"|A_{r}| mismatch: counted {len(members)}, formula {expected_a}")

    shifts = list(_unipotents(field, n, r, family))
    tail = (0,) if family == ORTHOGONAL else ()
    transversal = []
    for a in _subspace_representatives(field, n, r):
        ait, levi = _levi_rows(field, a, family)
        for b, h in shifts:  # u(b, h) l(a) has rows (a | b a^-T | 0), levi, (0 | h a^-T | 1)
            top = tuple(x + y + tail for x, y in zip(a, mat_mul(field, b, ait)))
            last = () if h is None else ((0,) * n + mat_mul(field, (h,), ait)[0] + (1,),)
            transversal.append(top + levi + last)

    expected_t = transversal_size(n, r, q)
    if len(transversal) != expected_t:
        raise ArithmeticError(f"transversal size {len(transversal)} != formula {expected_t}")
    rows_at, cols_at = zip(*positions)
    inverse_cols = [list(map(transpose(mat_inv(field, y)).__getitem__, cols_at)) for y in transversal]
    for k, x in enumerate(transversal):
        x_rows = list(map(x.__getitem__, rows_at))
        for y_cols in inverse_cols[:k]:
            if not any(map(_dot, repeat(mul), x_rows, y_cols)):
                raise ArithmeticError(f"two representatives share a right coset of A_{r}")
    return CosetData(parabolic, tuple(transversal))


def enumerate_double_coset(n: int, r: int, field: Field, family: str = ORTHOGONAL) -> Iterator[Mat]:
    """Stream P sigma_r P in the fixed order: transversal outer, P inner.

    Each element is p m with m = sigma_r x fixed over P, so u -> u m is computed
    once per x on the few distinct rows u of P's elements, and p m is read row by row.
    """
    _check_budget(cell_order(n, r, field.q), f"elements of the cell P sigma_{r} P")
    data = coset_transversal(n, r, field, family)
    perm = _sigma_perm(n, r, family)
    rows = {u for p in data.parabolic for u in p}
    for x in data.transversal:
        m = tuple(map(x.__getitem__, perm))  # sigma_r * x
        image = row_images(field, rows, m)
        for p in data.parabolic:
            yield tuple(map(image.__getitem__, p))


def enumerate_group(n: int, field: Field, family: str = ORTHOGONAL) -> Iterator[Mat]:
    """Stream the whole group as the disjoint union of its Bruhat cells."""
    _check_int("n", n, 1)
    order = sum(cell_order(n, r, field.q) for r in range(n + 1))
    _check_budget(order, f"elements of the {family} group (n={n}, q={field.q})")
    for r in range(n + 1):
        yield from enumerate_double_coset(n, r, field, family)

