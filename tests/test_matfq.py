
import pytest

from kloosterman.matfq import (
    SingularMatrixError,
    all_matrices,
    gl_iter,
    identity,
    is_alternating,
    mat_inv,
    mat_mul,
    mat_trace,
    transpose,
)
from kloosterman.classical import gl_order


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


def test_mul_dimension_mismatch(f2):
    with pytest.raises(ValueError):
        mat_mul(f2, ((1, 0),), ((1,),))


def test_inverse_examples(f2):
    assert mat_inv(f2, identity(3)) == identity(3)
    u = ((1, 1), (0, 1))
    assert mat_inv(f2, u) == u  # its square is the identity
    with pytest.raises(SingularMatrixError):
        mat_inv(f2, ((0, 0), (0, 0)))


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


def test_alternating_examples():
    assert is_alternating(((0, 0), (0, 0)))
    assert is_alternating(((0, 1), (1, 0)))
    assert not is_alternating(identity(2))
    with pytest.raises(ValueError):
        is_alternating(((0, 1),))


def test_gl_counts(f2, f4):
    assert sum(1 for _ in gl_iter(f2, 2)) == gl_order(2, 2) == 6
    assert sum(1 for _ in gl_iter(f2, 3)) == gl_order(3, 2) == 168
    assert sum(1 for _ in gl_iter(f4, 2)) == gl_order(2, 4) == 180
