import copy
import pickle
import re
import tracemalloc
from itertools import combinations, count, product

import pytest

from kloosterman import gf2r
from kloosterman.gf2r import (
    MAX_DEGREE,
    MODULI,
    Field,
    character_sums,
    is_irreducible,
    walsh_hadamard,
)

from _oracles import (
    character_sum_direct,
    irreducibles,
    is_primitive,
    mulmod,
    product_row,
    trace,
)

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

    # the selection rule stated at MODULI, at every degree
    def first_of_least_weight(r):
        for w in count(2):
            for middle in combinations(range(1, r), w - 2):
                p = 1 << r | 1 | sum(1 << e for e in middle)
                if is_irreducible(p, r):
                    return p

    assert MODULI[1] == 0b11  # x+1
    degrees = range(2, MAX_DEGREE + 1)
    assert {r: MODULI[r] for r in degrees} == {r: first_of_least_weight(r) for r in degrees}


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


@pytest.mark.parametrize(
    "op,args",
    [("mul", (-1, 1)), ("mul", (8, 1)), ("trace", (9,))],
    ids=["mul-negative", "mul-past-q", "trace-past-q"],
)
def test_values_outside_the_field_are_rejected(f8, op, args):
    with pytest.raises(ValueError, match=r"is not an element of GF\(2\^3\)"):
        getattr(f8, op)(*args)


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


@pytest.mark.parametrize("r,g", [(1, 1), (2, 2), (9, 7), (12, 3), (14, 7), (16, 3), (17, 2)])
def test_power_cycle_matches_independent_arithmetic(r, g):
    # g is the smallest generator; the default moduli at r = 9, 12, 14 and 16 are not
    # primitive, so there the tables step by a g other than x
    f, m = Field(r), MODULI[r]
    cycle = f.powers() + [1]
    assert cycle[1] == g
    assert all(cycle[k + 1] == mulmod(x, g, m) for k, x in enumerate(cycle[:-1]))
    assert sorted(f.powers()) == list(f.units())
    assert all(f._log[x] == k for k, x in enumerate(f.powers()))


def test_power_cycle_that_misses_one_is_refused(monkeypatch):
    # a wrong image of x^3 under x -> 2x leaves the generator search in GF(16) untouched
    # (it never multiplies x^3 by 2) but makes the half table's map singular
    real = gf2r._mul_raw
    monkeypatch.setattr(gf2r, "_mul_raw", lambda a, b, m: real(a, b, m) ^ (a == 8 and b == 2))
    with pytest.raises(ArithmeticError, match="not 1"):
        Field(4)._build_tables()


def test_tables_are_built_on_first_use_and_linear_in_q():
    assert not isinstance(Field(MAX_DEGREE)._log, list)
    f = Field(10)
    assert not isinstance(f._exp, list)
    assert [g.mul(2, 3) for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f))] == [6, 6]
    assert f.mul(2, 3) == 6
    assert (len(f._exp), len(f._log)) == (4 * f.q - 3, f.q)


# GF(2^11) modulo x^11 + x^2 + 1, whose root x generates the units
_MUL, _INV, _POW = (lambda f: f.mul(2, 3)), (lambda f: f.inv(2)), (lambda f: f.pow(2, 11))


@pytest.mark.parametrize(
    "copy_of,first,value",
    [
        (None, _MUL, 6),
        (lambda f: pickle.loads(pickle.dumps(f)), _MUL, 6),
        (copy.deepcopy, _MUL, 6),
        (None, _INV, 0x402),  # x (x^10 + x) = x^11 + x^2 = 1
        (None, _POW, 0x5),
        (None, lambda f: f.powers()[:3], [1, 2, 4]),
    ],
    ids=["mul", "mul-on-pickled-copy", "mul-on-deepcopy", "inv", "pow", "powers"],
)
def test_tables_are_built_once_per_field(monkeypatch, copy_of, first, value):
    # mul and pow read the antilog proxy before the log lookup builds both tables;
    # that stale proxy must not build them again
    builds, real = [], Field._build_tables

    def counted(self):
        builds.append(self)
        real(self)

    monkeypatch.setattr(Field, "_build_tables", counted)
    f = Field(11)
    g = copy_of(f) if copy_of else f
    assert first(g) == value
    assert len(builds) == 1 and builds[0] is g
    assert (g.mul(3, 5), g.inv(1), g.pow(3, -2), len(g.powers())) == (15, 1, g.inv(5), g.q - 1)
    assert len(builds) == 1
    # a copy of an unbuilt field builds its own tables and leaves the original unbuilt
    assert isinstance(f._exp, list) == isinstance(f._log, list) == (g is f)


@pytest.mark.parametrize("e", [0.0, True, 2.0, None])
def test_pow_refuses_an_exponent_that_is_not_an_int(e):
    # True is an int and 0.0 == 0, so only the type of e tells these apart
    for a in (0, 3):
        with pytest.raises(ValueError, match=re.escape(f"e={e!r}")):
            Field(4).pow(a, e)


def test_first_mul_peaks_at_the_memory_it_keeps():
    # one build: a second one would hold two copies of the O(q) tables at its peak
    f = Field(12)
    tracemalloc.start()
    try:
        f.mul(2, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * kept


def test_table_build_peaks_at_the_memory_it_keeps():
    # the antilog table is extended in place, with no temporary copy of its O(q) entries
    f = Field(12)
    tracemalloc.start()
    try:
        f._build_tables()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * kept


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


@pytest.mark.parametrize("m", [m for r in range(1, 7) for m in irreducibles(r)], ids=hex)
def test_character_sums_match_definition(m):
    f = Field(m.bit_length() - 1, m)
    values = [(7 * x * x - 3 * x + 1) % 23 - 11 for x in f.elements()]  # signed, no symmetry
    assert character_sums(f, values) == [character_sum_direct(m, values, c) for c in f.elements()]


def test_character_sums_rejects_other_lengths(f8):
    for size in (4, 16):
        with pytest.raises(ValueError):
            character_sums(f8, [1] * size)
