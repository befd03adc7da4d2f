import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from kloosterman.classical import kloosterman_gl_bruteforce
from kloosterman.gf2r import MODULI, Field
from kloosterman.guards import BudgetError
from kloosterman.ksum import (
    _cyclic_self_convolution,
    _kdata,
    kloosterman,
    kloosterman_gl,
    ktable,
    moments,
    theta_character_sums,
    twisted_sums,
)

from _oracles import (
    irreducibles,
    is_primitive,
    kloosterman_direct,
    ktable_direct,
    mulmod,
    theta_character_sum,
    trace,
    twisted_sum,
)

# one non-primitive modulus other than the default for each degree <= 10 that has one
NON_PRIMITIVE = {
    r: next(m for m in irreducibles(r) if not is_primitive(m) and m != MODULI[r])
    for r in (4, 6, 8, 9, 10)
}


def test_kloosterman_values(f2, f4, f8):
    assert kloosterman(f2, 1) == 1
    assert kloosterman(f4, 1) == 3
    assert kloosterman(f8, 1) == -5
    assert sorted(ktable(f8).values()) == [-5, -1, -1, -1, 3, 3, 3]
    assert sorted(ktable(f4).values()) == [-1, -1, 3]


def test_kloosterman_rejects_zero(f4):
    with pytest.raises(ValueError):
        kloosterman(f4, 0)
    with pytest.raises(ValueError):
        kloosterman(f4, 1, 0)


@pytest.mark.parametrize("bad", [-1, 8, 9])
def test_arguments_outside_the_field_are_rejected(f8, bad):
    # Field.mul is unchecked: a negative int indexes its log table from the end
    calls = [
        lambda: kloosterman(f8, bad),
        lambda: kloosterman(f8, 1, bad),
        lambda: kloosterman_gl(f8, 2, bad),
        lambda: kloosterman_gl(f8, 0, bad),
        lambda: kloosterman_gl_bruteforce(f8, 1, c=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="element of GF"):
            call()


@pytest.mark.parametrize("r", range(1, 7))
def test_twisted_kloosterman_matches_definition(r):
    # kloosterman(f, a, c) reads K(c^2 a) from the table; the oracle sums directly
    f = Field(r)
    for c in f.units():
        for a in f.units():
            assert kloosterman(f, a, c) == kloosterman_direct(f.modulus, a, c)


@pytest.mark.parametrize(
    "r,modulus",
    [pytest.param(r, None, id=f"r{r}-default") for r in range(1, 11)]
    + [pytest.param(r, m, id=f"r{r}-{m:#x}") for r, m in NON_PRIMITIVE.items()],
)
def test_ktable_matches_direct_sum(r, modulus):
    f = Field(r, modulus)
    table = ktable(f)
    assert list(table) == list(f.units())  # ascending a
    assert table == ktable_direct(f.modulus)
    assert _kdata(f)[1] == Counter((f.trace(a), k) for a, k in table.items())


@pytest.mark.parametrize("r", range(12, 18))
def test_large_table_identities(r):
    # Weil bound, K = 3 (mod 4), sum K = 1, sum K^2 = q^2 - q - 1, K(a^2) = K(a);
    # r = 17 is the first degree packed in 3-byte slots
    f = Field(r)
    q, m = f.q, f.modulus
    table = ktable(f)
    assert list(table) == list(f.units())
    k = list(table.values())
    assert all(v * v <= 4 * q and v % 4 == 3 for v in k)
    assert sum(k) == 1
    assert sum(v * v for v in k) == q * q - q - 1
    assert all(table[mulmod(a, a, m)] == v for a, v in table.items())


def test_moments_examples(f2, f4, f8):
    assert moments(f8, 1) == (1, -3, 4)
    assert moments(f4, 1) == (1, 3, -2)
    assert moments(f8, 3).t1k == -44
    assert moments(f8, 2).mk == 55
    assert moments(f4, 2).mk == 11
    assert moments(f2, 1) == (1, 0, 1)


@pytest.mark.parametrize("m", [m for r in range(1, 8) for m in irreducibles(r)], ids=hex)
def test_moments_match_power_sums_over_direct_table(m):
    # every irreducible modulus of degree <= 7, primitive or not, split by the oracle's traces
    f = Field(m.bit_length() - 1, m)
    split = ([], [])
    for a, k in ktable_direct(m).items():
        split[trace(a, m)].append(k)
    for h in range(26):
        t0k, t1k = (sum(k**h for k in side) for side in split)
        assert moments(f, h) == (t0k + t1k, t0k, t1k), h


def test_ktable_hands_out_a_new_dict():
    f = Field(3)
    table = ktable(f)
    table[1] = 999
    assert kloosterman(f, 1) == ktable(f)[1] == -5
    assert moments(f, 2).mk == 55
    assert ktable(f) is not ktable(f)


def test_trace_value_pairs_fit_the_weil_bound():
    # K = 3 (mod 4) and |K| <= 2 sqrt(q), so each moment sums at most 2 (isqrt(q) + 1) terms
    f = Field(16)
    pairs = _kdata(f)[1]
    assert pairs == Counter((f.trace(a), k) for a, k in ktable(f).items())
    assert len(pairs) <= 2 * (math.isqrt(f.q) + 1)


def _cyclic_direct(bits):
    n = len(bits)
    return [sum(bits[i] * bits[(k - i) % n] for i in range(n)) for k in range(n)]


def test_cyclic_self_convolution_matches_the_cyclic_sum():
    rng = random.Random(30)
    cases = [bytes(bits) for n in (1, 2, 3) for bits in itertools.product((0, 1), repeat=n)]
    cases += [bytes(rng.getrandbits(1) for _ in range(n)) for n in (4, 5, 17, 64, 255, 300)]
    for bits in cases:
        assert list(_cyclic_self_convolution(bits)) == _cyclic_direct(bits), bits


@pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16])
def test_cyclic_self_convolution_fills_its_slots(n):
    # all ones: every C_k = n, which fills a 2-byte slot at n = 2^16 - 1, the largest
    # n packed that way, and needs the 3-byte slots from n = 2^16 on
    assert list(_cyclic_self_convolution(bytes([1]) * n)) == [n] * n


def test_cyclic_self_convolution_in_three_byte_slots():
    # past n = 2^16: sparse random ones, plus a run of 600 across the wrap so that some
    # C_k pass 255 and fill two bytes of a slot, against a count of the pairs (i, j)
    n = (1 << 16) + 3
    rng = random.Random(32)
    ones = set(rng.sample(range(n), 200)) | {k % n for k in range(n - 300, n + 300)}
    bits = bytes(k in ones for k in range(n))
    pairs = Counter((i + j) % n for i in ones for j in ones)
    assert list(_cyclic_self_convolution(bits)) == [pairs[k] for k in range(n)]


def test_kept_tables_stay_bounded_across_fields():
    # the memo keeps the 16 fields used last, each with its log tables; 32 more add nothing
    moduli = irreducibles(10)[:48]
    _kdata.cache_clear()
    tracemalloc.start()
    try:
        for m in moduli[:16]:
            ktable(Field(10, m))
        filled = tracemalloc.get_traced_memory()[0]
        for m in moduli[16:]:
            ktable(Field(10, m))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _kdata.cache_clear()
    assert after <= 1.1 * filled


def test_moments_trace_nothing_once_the_table_is_built(monkeypatch):
    f = Field(10, NON_PRIMITIVE[10])
    ktable(f)
    rows = [moments(f, h) for h in range(11)]

    def forbidden(a):
        raise AssertionError("moments must read the counts kept beside the table")

    monkeypatch.setattr(f, "trace", forbidden)
    assert [moments(f, h) for h in range(11)] == rows


def test_gl_kloosterman_base_cases(f2, f4):
    assert kloosterman_gl(f2, 0, 1) == 1
    for f in (f2, f4):
        for a in f.units():
            assert kloosterman_gl(f, 1, a) == kloosterman(f, a)
    assert kloosterman_gl(f2, 2, 1) == 6


@pytest.mark.parametrize("t,r", [(2, 1), (2, 2), (3, 1)])
def test_gl_recursion_matches_bruteforce(t, r):
    # verify kloosterman checks the canonical character; c = 2 twists it where q > 2
    f = Field(r)
    c = 2 if f.q > 2 else 1
    brute = kloosterman_gl_bruteforce(f, t, c=c)
    assert brute == {a: kloosterman_gl(f, t, a, c=c) for a in f.units()}


def test_gl_bruteforce_trivial_cases(f4):
    assert kloosterman_gl_bruteforce(f4, 1) == ktable(f4)
    assert kloosterman_gl_bruteforce(f4, 0) == {1: 1, 2: 1, 3: 1}
    with pytest.raises(BudgetError):
        kloosterman_gl_bruteforce(f4, 5)


def test_theta_character_sum(f2, f4, f8):
    assert theta_character_sums(f2)[1] == 0  # empty sum, and K(lambda;1) - 1 = 0
    assert theta_character_sums(f4)[1] == 2
    assert theta_character_sums(f8)[1] == -6
    assert theta_character_sums(f8)[0] == 6  # lambda(0) = 1 for each of the q - 2 terms


def test_twisted_sum(f4, f8):
    assert twisted_sums(f8)[0] == 1
    assert twisted_sums(f8)[1] == -7  # q*lambda(1) + 1
    assert twisted_sums(f4)[1] == 5


@pytest.mark.parametrize("m", [m for r in range(1, 7) for m in irreducibles(r)], ids=hex)
def test_character_identity_sides_match_literal_sums(m):
    # every irreducible modulus of degree <= 6, each beta summed from the definition
    f = Field(m.bit_length() - 1, m)
    assert theta_character_sums(f) == [theta_character_sum(m, b) for b in f.elements()]
    assert twisted_sums(f) == [twisted_sum(m, b) for b in f.elements()]
