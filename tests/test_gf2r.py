from itertools import product

import pytest

from kloosterman.gf2r import MAX_DEGREE, MODULI, Field, is_irreducible, walsh_hadamard

from _oracles import irreducibles, is_primitive, mulmod, product_row, trace

# every irreducible modulus of degree <= 8, primitive or not (e.g. 0x1F)
SMALL_MODULI = [m for r in range(1, 9) for m in irreducibles(r)]


def test_descriptor_basics():
    f = Field(3)
    assert f.q == 8
    assert Field(1).q == 2


@pytest.mark.parametrize("r", [0, -1, 25, 100])
def test_degree_out_of_range(r):
    with pytest.raises(ValueError):
        Field(r)


def test_every_table_entry_constructs():
    for r in range(1, MAX_DEGREE + 1):
        assert Field(r).q == 1 << r


def test_pinned_moduli():
    assert MODULI[2] == 0b111  # x^2+x+1
    assert MODULI[3] == 0b1011  # x^3+x+1
    assert MODULI[4] == 0b10011  # x^4+x+1


@pytest.mark.parametrize("bad", [0b10001, 0b10101, 0b11011])  # (x+1)^4, (x^2+x+1)^2, even weight
def test_reducible_override_rejected(bad):
    assert not is_irreducible(bad, 4)
    with pytest.raises(ValueError):
        Field(4, modulus=bad)


def test_rabin_test_matches_sieve():
    for r in range(1, 13):
        assert [p for p in range(1 << r, 1 << (r + 1)) if is_irreducible(p, r)] == irreducibles(r)


def test_trace_mask_matches_repeated_squaring():
    # the mask comes from the modulus by Newton's identities; bit k is tr(x^k)
    for m in (m for r in range(1, 13) for m in irreducibles(r)):
        f = Field(m.bit_length() - 1, m)
        assert [f.trace(1 << k) for k in range(f.r)] == [trace(1 << k, m) for k in range(f.r)], m


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        Field(4, modulus=0b1011)  # irreducible, but of degree 3


def test_alternate_modulus_accepted():
    assert Field(4, modulus=0b11001).modulus == 0b11001  # x^4+x^3+1


def test_mul_examples():
    f4 = Field(2)
    assert f4.mul(2, 2) == 3  # g*g = g+1
    f8 = Field(3)
    assert f8.mul(f8.mul(2, 2), 2) == 3  # g^3 = g+1
    for f in (f4, f8):
        for x in f.elements():
            assert f.mul(x, 1) == x
            assert f.mul(x, 0) == 0


@pytest.mark.parametrize("r", range(1, 7))
def test_inverse_property_exhaustive(verify_passed, r):
    verify_passed(f"inverse-property-r{r}")


def test_inverse_examples():
    f4 = Field(2)
    assert f4.inv(1) == 1
    assert f4.inv(2) == 3  # g * (g+1) = 1
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


def test_trace_examples():
    f4, f8 = Field(2), Field(3)
    assert f4.trace(0) == 0
    assert f4.trace(2) == 1 and f4.trace(1) == 0
    assert f8.trace(1) == 1  # odd degree: sum of r ones


@pytest.mark.parametrize("r", range(1, 7))
def test_trace_is_linear_and_frobenius_stable(r):
    f = Field(r)
    for x in f.elements():
        assert f.trace(x) in (0, 1)
        assert f.trace(f.mul(x, x)) == f.trace(x)
    for x, y in product(f.elements(), repeat=2):
        if x < y:
            assert f.trace(x ^ y) == f.trace(x) ^ f.trace(y)


def test_lambda_examples():
    assert Field(2).lam(0) == 1
    assert Field(1).lam(1) == -1
    assert Field(2).lam(1) == 1  # tr(1) = 0 at even degree


@pytest.mark.parametrize("r", range(1, 7))
def test_lambda_is_multiplicative_under_addition(r):
    f = Field(r)
    for x, y in product(f.elements(), repeat=2):
        assert f.lam(x ^ y) == f.lam(x) * f.lam(y)


@pytest.mark.parametrize("r", range(1, 9))
def test_artin_schreier_image(r):
    f = Field(r)
    trace_zero = {x for x in f.elements() if f.trace(x) == 0}
    assert trace_zero == {f.mul(a, a) ^ a for a in f.elements()}


@pytest.mark.parametrize("r", range(1, 7))
def test_unit_group_is_cyclic(r):
    f = Field(r)
    for x in f.units():
        assert f.pow(x, f.q - 1) == 1
    orders = []
    for x in f.units():
        k, acc = 1, x
        while acc != 1:
            acc = f.mul(acc, x)
            k += 1
        orders.append(k)
    assert max(orders) == f.q - 1  # a generator exists


def test_small_moduli_include_non_primitive_ones():
    assert len(SMALL_MODULI) == 2 + 1 + 2 + 3 + 6 + 9 + 18 + 30
    assert 0x1F in SMALL_MODULI and not is_primitive(0x1F)
    assert not is_primitive(MODULI[9])  # x is not a generator for the default r = 9 modulus


@pytest.mark.parametrize("m", SMALL_MODULI, ids=hex)
def test_field_matches_independent_arithmetic(m):
    f = Field(m.bit_length() - 1, m)
    for a in f.elements():
        assert [f.mul(a, b) for b in f.elements()] == product_row(a, m)
        assert f.trace(a) == trace(a, m)
    for a in f.units():
        assert mulmod(a, f.inv(a), m) == 1
        assert f.pow(a, 3) == mulmod(mulmod(a, a, m), a, m)
        assert f.pow(a, -2) == f.inv(mulmod(a, a, m))
    assert (f.pow(0, 0), f.pow(0, 5)) == (1, 0)
    assert f.powers()[0] == 1 and sorted(f.powers()) == list(f.units())


def test_tables_are_built_on_first_use_and_linear_in_q():
    assert not isinstance(Field(MAX_DEGREE)._log, list)
    f = Field(10)
    assert not isinstance(f._exp, list)
    assert f.mul(2, 3) == 6
    assert (len(f._exp), len(f._log)) == (4 * f.q - 3, f.q)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 1024])
def test_walsh_hadamard_is_its_own_inverse_up_to_size(size):
    values = [(7 * x * x - 3 * x + 1) % 23 - 11 for x in range(size)]
    once = walsh_hadamard(values)
    assert walsh_hadamard(once) == [size * v for v in values]
    if size <= 16:
        assert once == [
            sum(v * (-1) ** (s & x).bit_count() for x, v in enumerate(values)) for s in range(size)
        ]


def test_walsh_hadamard_rejects_other_lengths():
    for size in (0, 3, 6):
        with pytest.raises(ValueError):
            walsh_hadamard([1] * size)
