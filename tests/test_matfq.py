import random
from functools import reduce
from operator import xor

import pytest

from kloosterman.gf2r import Field
from kloosterman.matfq import (
    SingularMatrixError,
    _dot,
    gl_iter,
    identity,
    mat_inv,
    mat_mul,
    mat_trace,
    transpose,
)
from kloosterman.dcsum import gl_order

from _oracles import all_matrices, mulmod


def _schoolbook(m, a, b):
    """The triple-loop product, with entries multiplied modulo m by the oracle."""
    return tuple(
        tuple(reduce(xor, (mulmod(x, b[k][j], m) for k, x in enumerate(row)), 0)
              for j in range(len(b[0])))
        for row in a
    )


def test_identity_is_neutral(f4):
    a = ((2, 1), (3, 0))
    assert mat_mul(f4, identity(2), a) == a
    assert mat_mul(f4, a, identity(2)) == a


def test_swap_is_involution(f2):
    s = ((0, 1), (1, 0))
    assert mat_mul(f2, s, s) == identity(2)


def test_scalar_square_over_f4(f4):
    g = ((2, 0), (0, 2))
    assert mat_mul(f4, g, g) == ((3, 0), (0, 3))


@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_mul_matches_schoolbook_oracle(r):
    field, rng = Field(r), random.Random(r)

    def sample(rows, cols):
        # plain entries, with an all-zero row and unit entries mixed in
        m = [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]
        m[rng.randrange(rows)] = [0] * cols
        for _ in range(rows):
            m[rng.randrange(rows)][rng.randrange(cols)] = 1
        return tuple(map(tuple, m))

    shapes = [(1, k, m) for k in range(1, 8) for m in (1, 7)]
    shapes += [(k, m, 1) for k in range(1, 8) for m in (1, 7)]
    shapes += [(k, rng.randint(1, 7), m) for k in range(1, 8) for m in range(1, 8)]
    for rows, inner, cols in shapes:
        a, b = sample(rows, inner), sample(inner, cols)
        assert mat_mul(field, a, b) == _schoolbook(field.modulus, a, b)
        assert mat_mul(field, identity(rows), a) == a == mat_mul(field, a, identity(inner))


def test_mul_dimension_mismatch(f2):
    with pytest.raises(ValueError):
        mat_mul(f2, ((1, 0),), ((1,),))


@pytest.mark.parametrize(
    "call",
    [
        lambda f: mat_inv(f, ((1, 0), (0, 1, 1))),
        lambda f: mat_mul(f, ((1, 1),), ((1, 0), (1,))),
        lambda f: mat_mul(f, ((1, 1), (1,)), identity(2)),
        lambda f: mat_trace(((1, 0), (0,))),
        lambda f: transpose(((1, 0), (1,))),
    ],
    ids=["inverse", "mul-right-factor", "mul-left-factor", "trace", "transpose"],
)
def test_every_row_length_is_checked(f2, call):
    with pytest.raises(ValueError):
        call(f2)


def test_the_empty_matrix(f2):
    assert list(gl_iter(f2, 0)) == [()]
    assert mat_inv(f2, ()) == ()
    assert mat_trace(()) == 0
    assert mat_mul(f2, (), ()) == ()


def test_inverse_examples(f2):
    assert mat_inv(f2, identity(3)) == identity(3)
    u = ((1, 1), (0, 1))
    assert mat_inv(f2, u) == u  # its square is the identity
    with pytest.raises(SingularMatrixError):
        mat_inv(f2, ((0, 0), (0, 0)))


def _entry(field, rng):
    """0, 1 or any element, so unit and non-unit factors both occur."""
    return rng.choice((0, 1, rng.randrange(field.q)))


@pytest.mark.parametrize("r", [1, 2, 8])
def test_dot_matches_schoolbook_oracle(r):
    field, rng = Field(r), random.Random(100 + r)
    for length in range(9):
        for _ in range(40):
            row = [_entry(field, rng) for _ in range(length)]
            col = [_entry(field, rng) for _ in range(length)]
            expected = reduce(xor, (mulmod(x, y, field.modulus) for x, y in zip(row, col)), 0)
            assert _dot(field.mul, row, col) == expected


def _random_invertible(field, n, rng):
    """A row shuffle of L U, L unit lower triangular and U upper triangular
    with a nonzero diagonal, multiplied by the oracle; elimination meets unit
    and non-unit pivots and multipliers alike."""
    lower = [[1 if i == j else _entry(field, rng) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [
        [rng.choice((1, rng.randrange(1, field.q))) if i == j else _entry(field, rng) if j > i
         else 0 for j in range(n)]
        for i in range(n)
    ]
    rows = list(_schoolbook(field.modulus, lower, upper))
    rng.shuffle(rows)
    return tuple(rows)


@pytest.mark.parametrize("r", [1, 2, 8])
def test_inverse_is_two_sided_on_random_matrices(r):
    field, rng = Field(r), random.Random(200 + r)
    m = field.modulus
    for n in range(1, 7):
        for _ in range(15):
            a = _random_invertible(field, n, rng)
            inv = mat_inv(field, a)
            assert _schoolbook(m, a, inv) == identity(n) == _schoolbook(m, inv, a)
            # row k replaced by a combination of the others leaves rank below n
            k, combination = rng.randrange(n), [0] * n
            for i, row in enumerate(a):
                if i != k:
                    c = _entry(field, rng)
                    combination = [s ^ mulmod(c, x, m) for s, x in zip(combination, row)]
            with pytest.raises(SingularMatrixError):
                mat_inv(field, a[:k] + (tuple(combination),) + a[k + 1:])


def test_inverse_is_involution_exhaustive(f2, f4):
    for a in gl_iter(f2, 2):
        assert mat_inv(f2, mat_inv(f2, a)) == a
    for a in list(gl_iter(f4, 2))[:40]:
        inv = mat_inv(f4, a)
        assert mat_mul(f4, a, inv) == identity(2)
        assert mat_inv(f4, inv) == a


def test_trace_examples(f2):
    assert mat_trace(identity(5)) == 1  # odd size over GF(2)
    assert mat_trace(((0, 0), (0, 0))) == 0
    sigma1 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert mat_trace(sigma1) == 1
    with pytest.raises(ValueError):
        mat_trace(((1, 0),))


def test_trace_of_product_commutes(f2, f4):
    mats2 = list(all_matrices(f2, 2, 2))
    for a in mats2:
        for b in mats2:
            assert mat_trace(mat_mul(f2, a, b)) == mat_trace(mat_mul(f2, b, a))
    mats4 = list(all_matrices(f4, 2, 2))[:40]
    for a in mats4:
        for b in mats4:
            assert mat_trace(mat_mul(f4, a, b)) == mat_trace(mat_mul(f4, b, a))


def test_transpose_reverses_products(f2):
    mats = list(all_matrices(f2, 2, 2))
    for a in mats:
        for b in mats:
            assert transpose(mat_mul(f2, a, b)) == mat_mul(f2, transpose(b), transpose(a))


@pytest.mark.parametrize("n, r", [(2, 1), (3, 1), (2, 2), (2, 3)])
def test_gl_iter_is_filtered_all_matrices(n, r):
    field = Field(r)

    def invertible(a):
        try:
            mat_inv(field, a)
        except SingularMatrixError:
            return False
        return True

    expected = [a for a in all_matrices(field, n, n) if invertible(a)]
    assert list(gl_iter(field, n)) == expected


def test_gl_counts(f2, f4):
    assert sum(1 for _ in gl_iter(f2, 2)) == gl_order(2, 2) == 6
    assert sum(1 for _ in gl_iter(f2, 3)) == gl_order(3, 2) == 168
    assert sum(1 for _ in gl_iter(f4, 2)) == gl_order(2, 4) == 180
