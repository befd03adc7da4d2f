from collections import Counter

import pytest

from kloosterman import pmi, wcode
from kloosterman.classical import ORTHOGONAL, SYMPLECTIC, BudgetError
from kloosterman.dcsum import cell_constants, closed_histogram
from kloosterman.gf2r import Field
from kloosterman.verify import dual_weight_from_histogram, weight_prefix_dp
from kloosterman.wcode import (
    code_bruteforce_wd,
    defining_vector,
    delsarte_check,
    distinct_dual_count,
    dual_enumerate,
    dual_weight,
    weight_prefix,
    weight_prefix_closed,
)

JMAX = [0, 1, 5, 25]


def test_dual_weight_examples(f4, f8):
    assert dual_weight(1, f8, 1) == 8
    trace0 = [a for a in f8.units() if f8.trace(a) == 0]
    assert all(dual_weight(1, f8, a) == 32 for a in trace0)
    assert dual_weight(1, f4, 2) == 4


def test_dual_weight_zero_is_flagged(f8):
    with pytest.warns(RuntimeWarning):
        assert dual_weight(1, f8, 0) == 0


def test_dual_weight_matches_histogram_route(verify_passed):
    cells = ((1, 4), (1, 8), (1, 16), (3, 2))
    verify_passed(*(f"dual-weight-closed-vs-histogram-n{n}-q{q}" for n, q in cells))


def test_dual_kernel(verify_passed):
    verify_passed(*(f"dual-kernel-n{n}-q{q}" for n, q in ((1, 2), (1, 4), (1, 8), (1, 16), (3, 2))))


def test_distinct_dual_counts(f2, f4, f8, f16):
    # the dual has dimension r exactly when the kernel is trivial
    assert distinct_dual_count(1, f4) == 2
    for n, f in ((1, f2), (1, f8), (1, f16), (3, f2)):
        assert distinct_dual_count(n, f) == f.q


def test_weight_prefix_basics(f8):
    hist = closed_histogram(1, f8, ORTHOGONAL)
    assert weight_prefix(f8, hist, 0) == [1]
    assert weight_prefix(f8, hist, 2) == [1, 0, 388]
    with pytest.raises(ValueError):
        weight_prefix(f8, hist, -1)


def test_weight_prefix_closed_spot_values(f2):
    assert weight_prefix_closed(3, f2, 1, ORTHOGONAL) == [1, 293888]
    assert weight_prefix_closed(3, f2, 1, SYMPLECTIC) == [1, 308224]
    with pytest.raises(ValueError):
        weight_prefix_closed(3, f2, -1)  # also once the cell is memoised


def test_weight_prefix_matches_naive_enumeration(verify_passed):
    verify_passed(*(f"weight-prefix-dp-vs-character-sum-n1-q{q}" for q in (4, 8, 16)))


@pytest.mark.parametrize("jmax", JMAX)
@pytest.mark.parametrize("n,q", [(1, 2**r) for r in range(1, 7)] + [(3, 2**r) for r in range(1, 5)])
@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_weight_prefix_matches_dp_on_cell_codes(family, n, q, jmax):
    f = Field(q.bit_length() - 1)
    hist = closed_histogram(n, f, family)
    prefix = weight_prefix(f, hist, jmax)
    assert prefix == weight_prefix_dp(hist, jmax)
    length = sum(hist.values())
    assert prefix[length + 1 :] == [0] * max(0, jmax - length)


SYNTHETIC = {
    "zero-counts": (2, {0: 0, 1: 3, 2: 0, 3: 5}),
    "all-counts-zero": (2, {1: 0, 3: 0}),
    "single-class": (3, {5: 7}),
    "single-zero-class": (3, {0: 4}),
    "nonzero-trace-xor": (3, {1: 3, 2: 1, 6: 2, 7: 4}),  # odd classes 1 ^ 2 != 0
    "every-class": (2, {0: 3, 1: 2, 2: 4, 3: 1}),
}


@pytest.mark.parametrize("jmax", JMAX)
@pytest.mark.parametrize("name", SYNTHETIC)
def test_weight_prefix_matches_dp_on_synthetic_histograms(name, jmax):
    r, hist = SYNTHETIC[name]
    assert weight_prefix(Field(r), hist, jmax) == weight_prefix_dp(hist, jmax)


@pytest.mark.parametrize(
    "hist", [{1: -3, 2: 5}, {9: 2}, {8: 0}, {-1: 1}], ids=["negative-count", "9", "8", "-1"]
)
def test_weight_prefix_rejects_bad_histograms(f8, hist):
    with pytest.raises(ValueError):
        weight_prefix(f8, hist, 3)


def test_weight_prefix_nonintegral_total_raises():
    # every nonzero a claiming weight 1 on a length-1 code gives C_1 = (1 - 3)/4
    with pytest.raises(ArithmeticError, match="not multiples of q=4"):
        wcode._krawtchouk_prefix(4, 1, ((0, 1), (1, 3)), 1)


@pytest.mark.parametrize("r", [3, 6, 8])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_transform_dual_weights_match_the_per_a_count(family, n, r):
    f = Field(r)
    hist = closed_histogram(n, f, family)
    length, weights = wcode._dual_weights(f.q, hist)
    assert length == sum(hist.values())
    assert dict(weights) == Counter(dual_weight_from_histogram(f, hist, a) for a in f.elements())


def test_weight_prefix_calls_no_field_product_or_trace(monkeypatch):
    f = Field(6)
    hist = closed_histogram(3, f, SYMPLECTIC)
    expected = weight_prefix_dp(hist, 4)

    def forbidden(*args):
        raise AssertionError("weight_prefix used a field product or trace")

    monkeypatch.setattr(Field, "mul", forbidden)
    monkeypatch.setattr(Field, "trace", forbidden)
    assert weight_prefix(f, hist, 4) == expected


def test_recursion_builds_each_cell_histogram_once(monkeypatch):
    calls = []

    def counted(n, field, family=ORTHOGONAL):
        calls.append((n, field.q, family))
        return closed_histogram(n, field, family)

    monkeypatch.setattr(wcode, "closed_histogram", counted)
    monkeypatch.setattr(wcode, "_DUAL_MEMO", {})
    monkeypatch.setattr(pmi, "_T1K_MEMO", {})
    for n, f in ((1, Field(5)), (3, Field(2))):
        for h in range(1, 26, 2):
            assert pmi.t1k_recursive(n, f, h).h == h
    cells = [(n, q, family) for n, q in ((1, 32), (3, 4)) for family in (ORTHOGONAL, SYMPLECTIC)]
    assert calls == cells
    # a second field object with the same modulus is the same cell
    assert weight_prefix_closed(1, Field(5), 3, SYMPLECTIC) == weight_prefix_closed(
        1, Field(5), 3, SYMPLECTIC
    )
    assert calls == cells


def test_tiny_code_full_distribution(verify_passed, f2):
    # the length-2 code {00, 11}
    verify_passed("bruteforce-wd-1-2", "closed-wd-1-2")
    assert defining_vector(1, f2) == [1, 1]


def test_length12_code_full_distribution(verify_passed):
    # dimension 11 = 12 - 1, closed form equals brute force, palindromic
    verify_passed(
        "bruteforce-codeword-count-1-4", "closed-vs-bruteforce-wd-1-4", "weight-symmetry-1-4"
    )


def test_bruteforce_respects_length_limit(f8):
    with pytest.raises(BudgetError):
        code_bruteforce_wd(1, f8)  # length 56 > 24
    with pytest.raises(BudgetError):
        delsarte_check(1, f8)


def test_dual_enumerate_examples(f2, f4):
    assert sorted(w for _, w in dual_enumerate(1, f2)) == [0, 2]
    weights4 = {w for _, w in dual_enumerate(1, f4)}
    assert weights4 == {0, 4}  # only two distinct dual codewords at (1,4)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_defining_vector_is_cell_trace_multiset(q):
    f = Field(q.bit_length() - 1)
    v = defining_vector(1, f)
    assert len(v) == cell_constants(1, f).size
    hist = closed_histogram(1, f, ORTHOGONAL)
    for beta in f.elements():
        assert v.count(beta) == hist[beta]


def test_code_checks_depend_only_on_the_trace_multiset(f4, monkeypatch):
    # the enumeration order of the cell may change; these results may not
    brute, delsarte = code_bruteforce_wd(1, f4), delsarte_check(1, f4)
    v = defining_vector(1, f4)
    permuted = v[5:] + v[:5][::-1]
    assert sorted(permuted) == sorted(v) and permuted != v
    monkeypatch.setattr(wcode, "defining_vector", lambda n, field: permuted)
    assert code_bruteforce_wd(1, f4) == brute
    assert delsarte_check(1, f4) == delsarte
