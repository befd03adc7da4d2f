"""Acceptance gate: one test per criterion, every check an exact integer
equality.  Each test prints a PASS line on success (visible with -s / -rA).

The criteria that `verify` covers read its checks by name (the
`verify_passed` fixture runs `verify all` once); a criterion computes only
what no suite checks."""

from collections import Counter

from kloosterman.dcsum import cell_constants, closed_histogram, dc_trace_histogram, expsum_dc
from kloosterman.gf2r import Field
from kloosterman.guards import ORTHOGONAL, SYMPLECTIC
from kloosterman.ksum import ktable, moments
from kloosterman.pmi import full_moment_identity, mk_via_identity, t1k_recursive
from kloosterman.verify import _hist_expsum
from kloosterman.wcode import dual_enumerate, dual_kernel, weight_prefix

RECURSION_GRID = [(1, 3), (1, 4), (1, 5), (3, 1), (3, 2)]  # (n, field degree)
THMA_GRID = [(1, 8), (1, 16), (3, 2)]  # the (n, q) of RECURSION_GRID that `verify thma` runs


def test_criterion_01_recursion_reproduces_trace_one_moments(verify_passed):
    verify_passed(
        *(f"recursion-vs-direct-n{n}-q{q}-h{h}" for n, q in THMA_GRID for h in (1, 3, 5, 7)),
        "recursion-spot-3-2-h1", "recursion-spot-1-8-h1", "recursion-spot-1-8-h3",
    )
    for n, deg in RECURSION_GRID:
        f = Field(deg)
        if (n, f.q) in THMA_GRID:
            continue
        for h in (1, 3, 5, 7):
            report = t1k_recursive(n, f, h, compare=True)
            assert report.match, (n, f.q, h, report)
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


def test_criterion_03_exponential_sum_closed_forms(verify_passed, dc32):
    grid = [(1, 2), (1, 4), (2, 2), (2, 4), (1, 8), (1, 16)]
    verify_passed(
        *(f"expsum-closed-vs-enumerated-n{n}-r{r}-q{q}" for n, q in grid for r in range(n + 1)),
        *(f"expsum-odd-cell-vanishes-n{n}-r1-q{q}" for n, q in grid),
        *(f"dc-sum-two-routes-n1-q{q}" for q in (2, 4, 8, 16)),
        *(f"orthogonality-inversion-n{n}-q{q}" for n, q in ((1, 2), (1, 4), (1, 8), (3, 2))),
        *(f"all-traces-hit-n{n}-q{q}" for n, q in ((3, 2), (3, 4), (5, 2))),
    )
    hist32, _ = dc32
    f2 = Field(1)
    consts = cell_constants(3, f2)
    for a in f2.units():
        cor_d = f2.lam(a) * consts.scale * ktable(f2)[a]
        assert expsum_dc(3, f2, a) == cor_d == _hist_expsum(f2, hist32, a)
    print("PASS criterion 3: closed exponential sums equal histogram sums on all "
          "target cells, odd cells vanish, distinguished-cell form holds, character "
          "inversion recovers the trace counts, every trace is hit for n >= 3")


def test_criterion_04_bruhat_partition_and_trace_shift(verify_passed):
    verify_passed(
        "sp42-bruteforce-order", "sp42-cell-sizes", "sp42-bruhat-partition",
        "o52-order", "trace-shift-under-iota-o52", "iota-bijection-p5-p4", "iota-multiplicative-p5",
    )
    print("PASS criterion 4: Sp(4,2) splits 48/288/384 over brute force; "
          "trace shifts by one under iota on all of O(5,2); iota maps P(5) onto P(4) "
          "multiplicatively")


def test_criterion_05_character_identities(verify_passed):
    identities = ("frobenius-argument-invariance", "artin-schreier-character-identity",
                  "twisted-sum-identity", "moment-partition")
    verify_passed(
        *(f"weil-bound-r{r}" for r in range(1, 11)),
        *(f"{identity}-r{r}" for identity in identities for r in range(1, 9)),
        *(f"inverse-property-r{r}" for r in range(1, 7)),
    )
    print("PASS criterion 5: Weil bound to q=1024; Frobenius, Artin-Schreier, "
          "twisted-sum and MK = T0K + T1K identities exact to q=256; x * inv(x) = 1 to q=64")


def test_criterion_06_gl_recursion_vs_bruteforce(verify_passed):
    verify_passed(*(f"gl-recursion-vs-bruteforce-t{t}-q{q}" for t, q in ((2, 2), (2, 4), (3, 2))))
    print("PASS criterion 6: GL Kloosterman recursion equals brute force at "
          "(2,2),(2,4),(3,2)")


def test_criterion_07_code_level_checks(verify_passed):
    verify_passed(
        "bruteforce-wd-1-2", "closed-wd-1-2", "bruteforce-codeword-count-1-4",
        "closed-vs-bruteforce-wd-1-4", "weight-symmetry-1-4",
        *(f"dual-kernel-n1-q{q}" for q in (2, 4, 8, 16)), "dual-kernel-n3-q2",
        *(f"dual-weight-closed-vs-histogram-n{n}-q{q}" for n, q in ((1, 4), (1, 8), (1, 16), (3, 2))),
        *(f"weight-prefix-dp-vs-character-sum-n1-q{q}" for q in (4, 8, 16)),
        "delsarte-dual-set-1-2", "delsarte-dual-set-1-4",
    )
    print("PASS criterion 7: brute-force distributions equal the closed formula, "
          "are palindromic; dual weights and weight prefixes agree across routes; "
          "kernels and Delsarte duals as expected")


def test_criterion_08_pless_identity(verify_passed):
    verify_passed(
        "pless-1-8-h1-worked-value",
        *(f"pless-1-{q}-h{h}" for q in (4, 8, 16) for h in range(1, 11)),
        *(f"pless-degenerate-h{h}" for h in (1, 2, 3)),
    )
    print("PASS criterion 8: Pless identity exact for (1,4), (1,8) and (1,16), h <= 10, "
          "and on a degenerate code; worked value 224 reproduced")


def test_criterion_09_full_moment_identity(verify_passed):
    verify_passed(
        *(f"full-moment-identity-n{n}-q{q}-h{h}" for n, q in THMA_GRID for h in range(1, 8)),
        *(f"mk-solved-vs-direct-n{n}-q{q}" for n, q in THMA_GRID),
    )
    for n, deg in RECURSION_GRID:
        f = Field(deg)
        assert mk_via_identity(n, f, 1) == 1
        if (n, f.q) in THMA_GRID:
            continue
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(n, f, h)
            assert lhs == rhs, (n, f.q, h)
        for h in range(1, 6):
            assert mk_via_identity(n, f, h) == moments(f, h).mk, (n, f.q, h)
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
