"""Acceptance gate: one test per criterion, every check an exact integer
equality.  Each test prints a PASS line on success (visible with -s / -rA)."""

from collections import Counter

from kloosterman.classical import (
    ORTHOGONAL,
    SYMPLECTIC,
    dc_trace_histogram,
    enumerate_double_coset,
    enumerate_group,
    iota,
    symplectic_by_form,
)
from kloosterman.dcsum import cell_constants, closed_histogram, expsum_closed, expsum_dc
from kloosterman.gf2r import Field
from kloosterman.ksum import (
    kloosterman_gl,
    kloosterman_gl_bruteforce,
    ktable,
    moments,
    theta_character_sum,
    twisted_sum,
)
from kloosterman.matfq import mat_trace
from kloosterman.pmi import full_moment_identity, mk_via_identity, pless_check, t1k_recursive
from kloosterman.wcode import (
    code_bruteforce_wd,
    delsarte_check,
    dual_enumerate,
    dual_kernel,
    weight_prefix,
    weight_prefix_closed,
)

RECURSION_GRID = [(1, 3), (1, 4), (1, 5), (3, 1), (3, 2)]  # (n, field degree)


def _hist_charsum(field, hist, c):
    return sum(count * field.lam(field.mul(c, beta)) for beta, count in hist.items())


def test_criterion_01_recursion_reproduces_trace_one_moments():
    for n, deg in RECURSION_GRID:
        f = Field(deg)
        for h in (1, 3, 5, 7):
            report = t1k_recursive(n, f, h, compare=True)
            assert report.match, (n, f.q, h, report)
    assert t1k_recursive(3, Field(1), 1).recursive == 1
    assert t1k_recursive(1, Field(3), 1).recursive == 4
    assert t1k_recursive(1, Field(3), 3).recursive == -44
    print("PASS criterion 1: recursion equals direct trace-one moments, "
          "h in {1,3,5,7} at (1,8),(1,16),(1,32),(3,2),(3,4)")


def test_criterion_02_dc32_enumeration(dc32, f2):
    hist, elapsed = dc32
    assert sum(hist.values()) == 602112
    assert hist == {0: 293888, 1: 308224}
    assert hist == closed_histogram(3, f2, ORTHOGONAL)
    assert elapsed < 60.0, f"streaming the cell took {elapsed:.1f}s"
    assert dc_trace_histogram(3, 2, f2) == hist
    print(f"PASS criterion 2: DC(3,2) streams 602112 elements "
          f"({elapsed:.1f}s, one process), the Levi-reduction count agrees")


def test_criterion_03_exponential_sum_closed_forms(dc32):
    cells = [(n, r, deg) for n in (1, 2) for r in range(n + 1) for deg in (1, 2)]
    cells += [(1, r, deg) for r in (0, 1) for deg in (3, 4)]
    for n, r, deg in cells:
        f = Field(deg)
        hist = dc_trace_histogram(n, r, f, ORTHOGONAL)
        for c in f.units():
            assert expsum_closed(n, r, f, c) == _hist_charsum(f, hist, c), (n, r, f.q, c)
        if r % 2 == 1:
            assert expsum_closed(n, r, f, 1) == 0
    for deg in (1, 2, 3, 4):
        f = Field(deg)
        hist = dc_trace_histogram(1, 0, f, ORTHOGONAL)
        consts = cell_constants(1, f)
        for a in f.units():
            cor_d = f.lam(a) * consts.scale * ktable(f)[a]
            assert expsum_dc(1, f, a) == cor_d == _hist_charsum(f, hist, a)
    hist32, _ = dc32
    f2 = Field(1)
    consts = cell_constants(3, f2)
    for a in f2.units():
        cor_d = f2.lam(a) * consts.scale * ktable(f2)[a]
        assert expsum_dc(3, f2, a) == cor_d == _hist_charsum(f2, hist32, a)
    print("PASS criterion 3: closed exponential sums equal histogram sums on all "
          "target cells, odd cells vanish, distinguished-cell form holds")


def test_criterion_04_bruhat_partition_and_trace_shift(f2):
    sp42 = symplectic_by_form(f2, 2)
    assert len(sp42) == 720
    cells = [set(enumerate_double_coset(2, r, f2, SYMPLECTIC)) for r in range(3)]
    assert [len(c) for c in cells] == [48, 288, 384]
    assert set().union(*cells) == sp42
    assert sum(len(c) for c in cells) == len(sp42)
    count = 0
    for w in enumerate_group(2, f2, ORTHOGONAL):
        assert mat_trace(w) == mat_trace(iota(f2, w, 2)) ^ 1
        count += 1
    assert count == 720
    print("PASS criterion 4: Sp(4,2) splits 48/288/384 over brute force; "
          "trace shifts by one under iota on all of O(5,2)")


def test_criterion_05_character_identities():
    for deg in range(1, 11):
        f = Field(deg)
        for k in ktable(f).values():
            assert k * k <= 4 * f.q
    for deg in range(1, 9):
        f = Field(deg)
        table = ktable(f)
        for s in (1, 2, 3):
            for a in f.units():
                assert table[f.pow(a, 1 << s)] == table[a]
        for beta in f.units():
            assert theta_character_sum(f, beta) == table[beta] - 1
        for beta in f.elements():
            expected = f.q * f.lam(f.inv(beta)) + 1 if beta else 1
            assert twisted_sum(f, beta) == expected
    print("PASS criterion 5: Weil bound to q=1024; Frobenius, Artin-Schreier and "
          "twisted-sum identities exact to q=256")


def test_criterion_06_gl_recursion_vs_bruteforce():
    for t, deg in ((2, 1), (2, 2), (3, 1)):
        f = Field(deg)
        for a in f.units():
            assert kloosterman_gl(f, t, a) == kloosterman_gl_bruteforce(f, t, a), (t, f.q, a)
    print("PASS criterion 6: GL Kloosterman recursion equals brute force at "
          "(2,2),(2,4),(3,2)")


def test_criterion_07_code_level_checks(f2, f4, f8, f16):
    for n, f, length in ((1, f2, 2), (1, f4, 12)):
        brute = code_bruteforce_wd(n, f)
        closed = weight_prefix_closed(n, f, length)
        assert closed == [brute.get(j, 0) for j in range(length + 1)]
        for j in range(length + 1):
            assert brute.get(j, 0) == brute.get(length - j, 0)  # palindrome
    assert dual_kernel(1, f4) == {0, 1}
    for n, f in ((1, f2), (1, f8), (1, f16)):
        assert dual_kernel(n, f) == {0}
    assert delsarte_check(1, f2)
    assert delsarte_check(1, f4)
    print("PASS criterion 7: brute-force distributions equal the closed formula, "
          "are palindromic; kernels and Delsarte duals as expected")


def test_criterion_08_pless_identity(f8, f16):
    weights = [w for _, w in dual_enumerate(1, f8)]
    lhs, rhs = pless_check(56, 3, weights, weight_prefix_closed(1, f8, 1), 1)
    assert lhs == rhs == 224
    for f, dim in ((f8, 3), (f16, 4)):
        size = cell_constants(1, f).size
        weights = [w for _, w in dual_enumerate(1, f)]
        for h in range(1, 11):
            prefix = weight_prefix_closed(1, f, min(size, h))
            lhs, rhs = pless_check(size, dim, weights, prefix, h)
            assert lhs == rhs, (f.q, h)
    print("PASS criterion 8: Pless identity exact for (1,8) and (1,16), h <= 10; "
          "worked value 224 reproduced")


def test_criterion_09_full_moment_identity():
    for n, deg in RECURSION_GRID:
        f = Field(deg)
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(n, f, h)
            assert lhs == rhs, (n, f.q, h)
        for h in range(1, 6):
            assert mk_via_identity(n, f, h) == moments(f, h).mk, (n, f.q, h)
    for n, deg in RECURSION_GRID:
        assert mk_via_identity(n, Field(deg), 1) == 1
    assert mk_via_identity(1, Field(3), 2) == 55
    print("PASS criterion 9: full-moment identity exact for h <= 7 on all targets; "
          "solved moments equal direct ones (MK^1 = 1 everywhere, MK^2 = 55 at q=8)")


def test_criterion_10_isomorphism_invariance():
    fa = Field(4)  # x^4 + x + 1
    fb = Field(4, modulus=0b11001)  # x^4 + x^3 + 1
    assert sorted(ktable(fa).values()) == sorted(ktable(fb).values())
    for h in range(6):
        assert moments(fa, h) == moments(fb, h)
    for family in (ORTHOGONAL, SYMPLECTIC):
        ha = closed_histogram(1, fa, family)
        hb = closed_histogram(1, fb, family)
        assert Counter(ha.values()) == Counter(hb.values())
        assert weight_prefix(fa, ha, 7) == weight_prefix(fb, hb, 7)
        ea = dc_trace_histogram(1, 0, fa, family)
        eb = dc_trace_histogram(1, 0, fb, family)
        assert ea == ha and eb == hb
    assert sorted(w for _, w in dual_enumerate(1, fa)) == sorted(
        w for _, w in dual_enumerate(1, fb)
    )
    assert sorted(expsum_dc(1, fa, c) for c in fa.units()) == sorted(
        expsum_dc(1, fb, c) for c in fb.units()
    )
    for h in (1, 3, 5, 7):
        ra = t1k_recursive(1, fa, h, compare=True)
        rb = t1k_recursive(1, fb, h, compare=True)
        assert ra.match and rb.match and ra.recursive == rb.recursive
    for h in (1, 2, 3):
        assert full_moment_identity(1, fa, h) == full_moment_identity(1, fb, h)
    assert len(dual_kernel(1, fa)) == len(dual_kernel(1, fb)) == 1
    print("PASS criterion 10: all outputs at r=4 agree under the moduli "
          "x^4+x+1 and x^4+x^3+1")
