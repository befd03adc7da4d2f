import random
import re
from collections import Counter

import pytest

from kloosterman import pmi, wcode
from kloosterman.dcsum import cell_constants, closed_histogram
from kloosterman.gf2r import Field
from kloosterman.guards import ORTHOGONAL, SYMPLECTIC, BudgetError
from kloosterman.ksum import moments
from kloosterman.verify import dual_weight_from_histogram, weight_prefix_dp
from _oracles import krawtchouk_prefix

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
        weight_prefix_closed(3, f2, -1)


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


def test_weight_prefix_refuses_bools():
    # True == 1, so an isinstance check would read element 1 with 3 coordinates and a count of 1
    with pytest.raises(ValueError, match=re.escape("[(True, 3), (2, True)]")):
        weight_prefix(Field(2), {True: 3, 2: True}, 2)


NONINTEGRAL = (1, Counter({0: 1, 1: 3}))  # every nonzero a claiming weight 1 on a length-1 code


def test_weight_prefix_nonintegral_total_raises():
    # C_1 = (1 - 3)/4
    with pytest.raises(ArithmeticError, match="sum at j=1, q=4 is not integral"):
        wcode._divided(4, wcode._krawtchouk_sums(*NONINTEGRAL), 1)


@pytest.mark.parametrize("jmax", [0, 1, 7, 25, 61])
@pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (1, 3), (1, 6), (3, 1), (3, 3)])
@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_krawtchouk_sums_match_the_one_shot_prefix(family, n, r, jmax):
    # the code lengths 2, 12 and 56 lie below the largest jmax
    q = 1 << r
    length, even, odd = wcode._dual_weights(q, closed_histogram(n, Field(r), family))
    weights = even + odd
    expected = krawtchouk_prefix(q, length, weights, jmax)
    assert wcode._divided(q, wcode._krawtchouk_sums(length, weights), jmax) == expected


def test_recursion_steps_each_dual_weight_once_per_order(cold_cells, monkeypatch):
    # all odd h <= 25 on one cell: 25 recurrence steps per dual weight, not sum(h)
    steps = []
    kernel = wcode._krawtchouk

    def counted(length, w):
        slot = len(steps)
        steps.append(-1)  # K_0 takes no step
        for value in kernel(length, w):
            steps[slot] += 1
            yield value

    monkeypatch.setattr(wcode, "_krawtchouk", counted)
    f = Field(2)
    for h in range(1, 26, 2):
        assert pmi.t1k_recursive(3, f, h, compare=True).match, h
    # one kernel per distinct dual weight at an odd transform index of the orthogonal cell
    odd = wcode._dual_weights(f.q, closed_histogram(3, f, ORTHOGONAL))[2]
    assert steps == [25] * len(odd)


@pytest.mark.parametrize("r", [3, 6, 8])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_transform_dual_weights_match_the_per_a_count(family, n, r):
    f = Field(r)
    hist = closed_histogram(n, f, family)
    length, even, odd = wcode._dual_weights(f.q, hist)
    assert length == sum(hist.values())
    # bit 0 of the transform index s is the functional's value at beta = 1, tr(a)
    halves = Counter(), Counter()
    for a in f.elements():
        halves[f.trace(a)][dual_weight_from_histogram(f, hist, a)] += 1
    assert (even, odd) == halves


def test_weight_prefix_calls_no_field_product_or_trace(monkeypatch):
    f = Field(6)
    hist = closed_histogram(3, f, SYMPLECTIC)
    expected = weight_prefix_dp(hist, 4)

    def forbidden(*args):
        raise AssertionError("weight_prefix used a field product or trace")

    monkeypatch.setattr(Field, "mul", forbidden)
    monkeypatch.setattr(Field, "trace", forbidden)
    assert weight_prefix(f, hist, 4) == expected


def test_recursion_builds_each_cell_histogram_once(cold_cells, monkeypatch):
    calls = []

    def counted(n, field, family=ORTHOGONAL):
        calls.append((n, field.q, family))
        return closed_histogram(n, field, family)

    monkeypatch.setattr(pmi, "closed_histogram", counted)
    for n, f in ((1, Field(5)), (3, Field(2))):
        for h in range(1, 26, 2):
            assert pmi.t1k_recursive(n, f, h).h == h
    # one orthogonal histogram per cell pair; the symplectic one is never built
    cells = [(1, 32, ORTHOGONAL), (3, 4, ORTHOGONAL)]
    assert calls == cells
    # a second field object with the same modulus is the same cell pair
    assert pmi.t1k_recursive(1, Field(5), 27).h == 27
    assert calls == cells
    # the full-moment identity reads the symplectic cell from the same transform, at any order
    for h in (3, 1, 7):
        lhs, rhs = pmi.full_moment_identity(1, Field(5), h)
        assert lhs == rhs and pmi.mk_via_identity(1, Field(5), h) == moments(Field(5), h).mk
    assert calls == cells


def test_bruteforce_respects_length_limit(f8):
    with pytest.raises(BudgetError):
        code_bruteforce_wd(1, f8)  # 2^56 words exceed the budget
    with pytest.raises(BudgetError):
        delsarte_check(1, f8)


@pytest.mark.parametrize("r", [1, 2])
def test_gray_walk_matches_the_dp_at_every_short_length(r, monkeypatch):
    f = Field(r)
    rng = random.Random(36 + r)
    for length in range(1, 15):
        v = [rng.randrange(f.q) for _ in range(length)]
        monkeypatch.setattr(wcode, "defining_vector", lambda n, field: v)
        full = weight_prefix_dp(Counter(v), length)
        assert code_bruteforce_wd(1, f) == {j: c for j, c in enumerate(full) if c}


def test_delsarte_holds_for_every_vector_and_fails_for_a_nonlinear_trace(monkeypatch):
    f = Field(2)
    rng = random.Random(36)
    for length in range(1, 13):
        v = [rng.randrange(f.q) for _ in range(length)]
        monkeypatch.setattr(wcode, "defining_vector", lambda n, field: v)
        assert delsarte_check(1, f)
    # the indicator of 1 is not F_2-linear: it traces (1, 2, 3) to the words
    # {0, 001, 010, 100}, while the bit rows 101 and 110 span {0, 011, 101, 110}
    monkeypatch.setattr(wcode, "defining_vector", lambda n, field: [1, 2, 3])
    monkeypatch.setattr(f, "trace", lambda a: int(a == 1))
    assert not delsarte_check(1, f)


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
