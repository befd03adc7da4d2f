"""Exact dense linear algebra over GF(2^r).

Matrices are immutable tuples of row tuples of ints.  The field is passed
explicitly to any operation that multiplies entries; addition of entries is
xor and needs no field.  Nothing here is numerical: every operation is exact.
"""

from __future__ import annotations

from itertools import filterfalse, product
from operator import xor
from typing import Iterable, Iterator

from .gf2r import Field
from .guards import _check_int

Mat = tuple[tuple[int, ...], ...]


class SingularMatrixError(ValueError):
    pass


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    if len(set(map(len, a))) > 1:  # zip would cut every row to the shortest
        raise ValueError("cannot transpose rows of differing lengths")
    return tuple(zip(*a))


def _dot(mul, row, col) -> int:
    s = 0
    for x, y in zip(row, col):
        if x and y:
            s ^= y if x == 1 else mul(x, y)
    return s


def mat_mul(field: Field, a: Mat, b: Mat) -> Mat:
    """Row i of ab is the sum of a_ij b_j over the nonzero a_ij, the first term
    taken as it is; mul only for a_ij != 1."""
    if len(set(map(len, b))) > 1:
        raise ValueError("the right factor's rows differ in length")
    mul, out = field.mul, []
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"dimension mismatch: {len(row)} columns vs {len(b)} rows")
        acc = None
        for x, b_row in zip(row, b):
            if x == 1:
                acc = b_row if acc is None else tuple(map(xor, acc, b_row))
            elif x:
                acc = tuple([s ^ mul(x, y) for s, y in zip(acc or (0,) * len(b_row), b_row)])
        out.append((0,) * len(b[0]) if acc is None else acc)
    return tuple(out)


def row_images(field: Field, rows: Iterable[tuple[int, ...]], m: Mat) -> dict[tuple, tuple]:
    """u -> u m for each distinct u in rows, by one mat_mul.

    A product p m whose rows are all keys is then tuple(map(images.__getitem__, p)),
    so matrices that share rows share their products' rows too.
    """
    distinct = tuple(dict.fromkeys(rows))
    return dict(zip(distinct, mat_mul(field, distinct, m)))


def mat_trace(a: Mat) -> int:
    t = 0
    for i, row in enumerate(a):
        if len(row) != len(a):
            raise ValueError("trace of a non-square matrix")
        t ^= row[i]
    return t


def mat_inv(field: Field, a: Mat) -> Mat:
    """Inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    mul, inv = field.mul, field.inv
    aug = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(a)]  # (a | I)
    for col in range(n):
        for piv in range(col, n):
            if aug[piv][col]:
                break
        else:
            raise SingularMatrixError("matrix is singular")
        prow, aug[piv] = aug[piv], aug[col]
        if prow[col] != 1:
            pi = inv(prow[col])
            prow = [mul(pi, v) for v in prow]
        aug[col] = prow
        for r, row in enumerate(aug):
            f = row[col]
            if f and r != col:
                aug[r] = list(map(xor, row, prow)) if f == 1 else [
                    x ^ mul(f, y) for x, y in zip(row, prow)
                ]
    return tuple(tuple(row[n:]) for row in aug)


def gl_iter(field: Field, n: int) -> Iterator[Mat]:
    """All invertible n x n matrices, in lexicographic order of flattened entries:
    built row by row, each row running in product order over the vectors
    outside the span above it."""
    _check_int("n", n)
    q, mul = field.q, field.mul
    vectors = list(product(range(q), repeat=n))

    def extend(rows: Mat, span: set[tuple[int, ...]]) -> Iterator[Mat]:
        if len(rows) == n:
            yield rows
            return
        for v in filterfalse(span.__contains__, vectors):
            wider = span if len(rows) == n - 1 else {  # the last span is never read
                tuple(map(xor, s, m))
                for m in [[mul(c, x) for x in v] for c in range(q)] for s in span
            }
            yield from extend(rows + (v,), wider)

    return extend((), {(0,) * n})
