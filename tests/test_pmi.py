import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import kloosterman

from kloosterman import classical, dcsum, ksum, matfq, pmi, wcode
from kloosterman.classical import ORTHOGONAL, SYMPLECTIC
from kloosterman.dcsum import cell_constants, closed_histogram
from kloosterman.gf2r import Field
from kloosterman.ksum import moments
from kloosterman.pmi import full_moment_identity, mk_via_identity, pless_check, stirling2, t1k_recursive

from _oracles import irreducibles, krawtchouk_prefix, onto_alternating, stirling_side_direct

ORDERS = [25, 3, 41]  # a request below and one above an earlier one


def test_stirling_examples():
    for h in range(1, 9):
        assert stirling2(h, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(2, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling_recurrence():
    # independent route: the alternating sum t! S(h,t) = sum (-1)^(t-i) C(t,i) i^h
    for h in range(11):
        onto = onto_alternating(h, h + 2)
        for t in range(h + 3):
            assert stirling2(h, t) == onto[t] // math.factorial(t)


def test_onto_rows_match_the_alternating_sum_in_any_order():
    for h in ORDERS + list(range(62)):
        for tmax in (0, 1, h // 2, h, h + 3):
            assert pmi._onto(h, tmax) == onto_alternating(h, min(h, tmax)), (h, tmax)


@pytest.mark.parametrize("length", [0, 1, 2, 7, 24, 25, 26, 40, 61, 62, 1000])
def test_stirling_side_matches_the_double_sum(length):
    rng = random.Random(length)
    prefix = [rng.randrange(-10**6, 10**6) for _ in range(min(length, 61) + 1)]
    for h in range(62):
        jcap = min(length, h)
        columns = [pmi.pless_column(length, prefix, t) for t in range(jcap + 1)]
        side = pmi._stirling_side(columns, pmi._onto(h, jcap))
        assert Fraction(side, 2**jcap) == stirling_side_direct(length, prefix, h), h


def test_pless_nonintegral_side_raises_even_under_optimize():
    # the Stirling side is -1/2 here; it must never be truncated to an int
    with pytest.raises(ArithmeticError):
        pless_check(1, 0, [0], [0, 1], 1)
    src = str(Path(kloosterman.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from kloosterman.pmi import pless_check; print(pless_check(1, 0, [0], [0, 1], 1))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError" in proc.stderr


def test_pless_needs_enough_prefix(f8):
    with pytest.raises(ValueError):
        pless_check(56, 3, [0], [1], 3)


@pytest.mark.parametrize(
    "length,dim,dual_weights,prefix,h",
    [
        (6, 0, [0], [1, 6, 15, 20, 15, 6, 1], -1),  # 0 ** -1 on a float
        (1, 0, [1], [1, 1], -1),  # a negative shift
        (2, 1, [1, 1], [1, 0, 1], -3),  # a negative islice stop
        (0, 0, [], [1], -2),
    ],
    ids=["zero-power", "shift", "islice", "empty-code"],
)
def test_pless_rejects_negative_orders(length, dim, dual_weights, prefix, h):
    with pytest.raises(ValueError, match=f"h={h}"):
        pless_check(length, dim, dual_weights, prefix, h)


def test_pless_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="dim=-1"):
        pless_check(1, -1, [0], [1, 1], 1)


@pytest.mark.parametrize(
    "dual_weights,prefix,message",
    [
        ([1.5], [1, 0], "dual_weights must hold ints only, got 1.5"),
        ([1, 1], [1, 0.0], "prefix must hold ints only, got 0.0"),
        ([1, True], [1, 0], "dual_weights must hold ints only, got True"),
    ],
    ids=["float-weight", "float-count", "bool-weight"],
)
def test_pless_refuses_non_int_entries_first(monkeypatch, dual_weights, prefix, message):
    def no_column(*args):
        raise AssertionError("a Pless column was built from unchecked entries")

    monkeypatch.setattr(pmi, "pless_column", no_column)
    with pytest.raises(ValueError, match=re.escape(message)):
        pless_check(3, 1, dual_weights, prefix, 1)


def test_recursion_report_fields(f2):
    report = t1k_recursive(3, f2, 1, compare=True)
    assert report.n == 3 and report.q == 2 and report.h == 1
    assert report.d_values == (0, -14336)  # D_1 = -scale
    assert report.direct == 1 and report.match is True


def test_recursion_at_q256_up_to_h25():
    f = Field(8)
    for h in range(1, 26, 2):
        assert t1k_recursive(1, f, h, compare=True).match, h


@pytest.mark.parametrize("n,r_field", [(1, 12), (5, 8)] + [(n, r) for n in (5, 7) for r in range(1, 7)])
def test_recursion_matches_direct_up_to_h25(n, r_field):
    f = Field(r_field)
    for h in range(1, 26, 2):
        assert t1k_recursive(n, f, h, compare=True).match, h


@pytest.mark.parametrize("n,r", [(1, 3), (1, 5), (3, 1), (3, 2), (15, 8)])
def test_cell_series_in_any_order_match_one_shot_oracles(cold_cells, n, r):
    f = Field(r)
    size = cell_constants(n, f).size
    for h in ORDERS if size < 1000 else [25, 3, 29]:  # j <= 30 on the 3712-bit code
        tmax = min(size, h)
        prefixes = []
        for family in (ORTHOGONAL, SYMPLECTIC):
            length, even, odd = wcode._dual_weights(f.q, closed_histogram(n, f, family))
            prefix = krawtchouk_prefix(f.q, length, even + odd, tmax)
            assert wcode.weight_prefix_closed(n, f, tmax, family) == prefix
            columns = [pmi.pless_column(size, prefix, t) for t in range(tmax + 1)]
            side = pmi._stirling_side(columns, pmi._onto(h, tmax))
            assert Fraction(side, 2**tmax) == stirling_side_direct(size, prefix, h)
            prefixes.append(prefix)
        d = [a - b for a, b in zip(*prefixes)]
        report = t1k_recursive(n, f, h)
        assert report.recursive == moments(f, h).t1k
        assert report.d_values == tuple(d)
        # the kept columns are q E_t of D, however far an earlier order took them
        columns = [pmi.pless_column(size, d, t) for t in range(tmax + 1)]
        assert pmi._recursion(n, f).columns[: tmax + 1] == [f.q * c for c in columns]
        # the kept symplectic sums, read from the orthogonal transform, are q C'_j
        lhs, rhs = full_moment_identity(n, f, h)
        assert lhs == rhs
        assert pmi._recursion(n, f).symplectic.sums[: tmax + 1] == [f.q * c for c in prefixes[1]]
        assert pmi._recursion(n, f).symplectic.columns[: tmax + 1] == [
            f.q * pmi.pless_column(size, prefixes[1], t) for t in range(tmax + 1)
        ]


def test_recursion_and_full_moment_identity_at_q65536(cold_cells):
    # `verify thma` stops at q = 16; here the kept columns are read at q = 2^16
    f = Field(16)
    assert t1k_recursive(1, f, 7, compare=True).match
    for h in range(1, 8):
        lhs, rhs = full_moment_identity(1, f, h)
        assert lhs == rhs, h
    for h in range(1, 6):
        assert mk_via_identity(1, f, h) == moments(f, h).mk, h


def test_each_cell_derives_its_constants_once_in_the_kept_recursion(cold_cells, monkeypatch):
    # later orders and the full-moment identity read the factors the memo entry keeps
    calls = Counter()
    derive = pmi.cell_constants

    def counted(n, field):
        calls[n, field.q] += 1
        return derive(n, field)

    monkeypatch.setattr(pmi, "cell_constants", counted)
    cells = [(1, Field(3)), (3, Field(2)), (5, Field(1))]
    for n, f in cells:
        for h in range(1, 26, 2):
            assert t1k_recursive(n, f, h, compare=True).match, (n, f.q, h)
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(n, f, h)
            assert lhs == rhs, (n, f.q, h)
        for h in range(1, 6):
            assert mk_via_identity(n, f, h) == moments(f, h).mk, (n, f.q, h)
    assert calls == {(n, f.q): 1 for n, f in cells}


# (3, 4) and cells with n >= 5 or q >= 64; the code lengths all exceed 25
RECURSION_GRID = [(3, 2), (1, 6), (3, 6), (5, 2), (5, 6), (7, 3)]


def test_recursion_keeps_values_only_and_reads_d_from_the_kept_prefixes(cold_cells):
    for n, r in RECURSION_GRID:
        f = Field(r)
        for h in range(1, 26, 2):
            ortho = wcode.weight_prefix_closed(n, f, h, ORTHOGONAL)
            sympl = wcode.weight_prefix_closed(n, f, h, SYMPLECTIC)
            d = tuple(a - b for a, b in zip(ortho, sympl))
            assert t1k_recursive(n, f, h).d_values == d, (n, r, h)
        # one memo entry per pair, holding plain ints and the row of h = 26 cut at t <= 26
        kept = pmi._recursion(n, f)
        assert kept.values == [moments(f, h).t1k for h in range(1, 26, 2)]
        assert all(type(value) is int for value in kept.values)
        assert kept.onto == onto_alternating(26, 26)
    assert pmi._recursion.cache_info().misses == len(RECURSION_GRID)


def test_kept_recursions_stay_bounded_across_fields(cold_cells):
    # the memo keeps the 16 cell pairs used last, each with its Field, tables included.
    # Tracing starts once 16 are kept, as tracing every field would take seconds more:
    # 16 traced fields then evict the untraced ones, and 8 more traced ones add nothing
    moduli = irreducibles(12)[:40]
    for m in moduli[:16]:
        t1k_recursive(1, Field(12, m), 1)
    tracemalloc.start()
    try:
        for m in moduli[16:32]:
            t1k_recursive(1, Field(12, m), 1)
        filled = tracemalloc.get_traced_memory()[0]
        for m in moduli[32:]:
            t1k_recursive(1, Field(12, m), 1)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pmi._recursion.cache_info().currsize == 16
    assert after <= 1.1 * filled


def test_kept_d_sums_raise_at_every_request_past_a_nonintegral_count(
    cold_cells, monkeypatch, f8
):
    # one odd-s dual weight 1 on the length-56 code: q D_1 = 2 K_1(1) = 108, not a multiple of 8
    monkeypatch.setattr(pmi, "_dual_weights", lambda q, hist: (56, Counter(), Counter({1: 1})))
    for h in (1, 1, 3, 25):
        with pytest.raises(ArithmeticError, match="sum at j=1, q=8 is not integral"):
            t1k_recursive(1, f8, h)
    assert pmi._recursion(1, f8).values == []


def test_recursion_reads_neither_the_kloosterman_table_nor_the_closed_dual_weights(
    cold_cells, monkeypatch
):
    # the recursion is checked against the direct moments; were it to read the
    # Kloosterman table or the closed-form dual weights, that check would be circular
    cells = [(1, Field(6)), (3, Field(4)), (5, Field(2))]
    direct = {(n, f.q, h): moments(f, h).t1k for n, f in cells for h in range(1, 26, 2)}

    def forbidden(*args):
        raise AssertionError("the recursion read Kloosterman data")

    monkeypatch.setattr(ksum, "_kdata", forbidden)
    monkeypatch.setattr(wcode, "dual_weight", forbidden)
    for n, f in cells:
        for h in range(1, 26, 2):
            assert t1k_recursive(n, f, h).recursive == direct[n, f.q, h], (n, f.q, h)


def test_a_raising_order_leaves_the_kept_recursion_as_it_was(cold_cells, monkeypatch, f4):
    exact = pmi._exact

    def broken(num, den, what):
        if what.endswith("h=7)"):
            raise ArithmeticError(f"injected at {what}")
        return exact(num, den, what)

    monkeypatch.setattr(pmi, "_exact", broken)
    assert t1k_recursive(3, f4, 5).recursive == moments(f4, 5).t1k
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="injected"):
            t1k_recursive(3, f4, 11)
    kept = pmi._recursion(3, f4)
    assert kept.values == [moments(f4, h).t1k for h in (1, 3, 5)]
    assert kept.onto == onto_alternating(6, 6)
    monkeypatch.undo()
    for h in range(25, 0, -2):
        assert t1k_recursive(3, f4, h, compare=True).match, h


def test_the_kept_recursion_is_bounded_by_the_code_length(cold_cells, f8):
    # the code length at (1, 8) is N = 56; the kept row stops at t <= N however high h goes,
    # and the symplectic side, one kernel per distinct dual weight, stays inside the same bound
    f8.mul(2, 3)
    tracemalloc.start()
    try:
        t1k_recursive(1, f8, 401)
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(1, f8, h)
            assert lhs == rhs, h
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 10**6
    assert len(pmi._recursion(1, f8).onto) == cell_constants(1, f8).size + 1 == 57
    assert len(pmi._recursion(1, f8).symplectic.sums) == 8


@pytest.mark.parametrize("n,r", [(1, 3), (1, 6), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2)])
def test_d_vanishes_at_every_even_j(n, r):
    # the symplectic histogram is the orthogonal one shifted by 1, so the two
    # Walsh-Hadamard transforms agree at even s and change sign at odd s; there a
    # dual weight w becomes N - w, and K_j(N - w) = (-1)^j K_j(w)
    f = Field(r)
    ortho = closed_histogram(n, f, ORTHOGONAL)
    assert closed_histogram(n, f, SYMPLECTIC) == {beta ^ 1: c for beta, c in ortho.items()}
    for h in range(1, 26, 2):
        d = t1k_recursive(n, f, h).d_values
        assert not any(d[0::2]) and any(d[1::2]), h


def test_recursion_range_guards(f2, f4, f8):
    with pytest.raises(ValueError):
        t1k_recursive(1, f2, 1)
    with pytest.raises(ValueError):
        t1k_recursive(1, f4, 1)
    with pytest.raises(ValueError):
        t1k_recursive(2, f8, 1)
    with pytest.raises(ValueError):
        t1k_recursive(1, f8, 2)  # even order is outside the supported range
    with pytest.raises(ValueError):
        t1k_recursive(1, f8, 0)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda f: moments(f, 2.0), "h=2.0"),
        (lambda f: moments(f, 2.5), "h=2.5"),
        (lambda f: wcode.weight_prefix(f, {0: 0.5, 1: 0.5}, 1), "(0, 0.5)"),
        (lambda f: wcode.weight_prefix(f, {1.0: 1}, 1), "(1.0, 1)"),
        (lambda f: wcode.weight_prefix(f, {0: 1}, 1.0), "jmax=1.0"),
        (lambda f: t1k_recursive(1, f, 3.0), "h=3.0"),
        (lambda f: full_moment_identity(1, f, 3.0), "h=3.0"),
        (lambda f: mk_via_identity(1, f, 2.0), "h=2.0"),
        (lambda f: stirling2(3.0, 2), "h=3.0"),
        (lambda f: stirling2(3, 2.0), "t=2.0"),
        (lambda f: pless_check(2, 1, [1, 1], [1, 0, 1], 2.0), "h=2.0"),
        (lambda f: pless_check(-1, 1, [1, 1], [1, 0, 1], 2), "length=-1"),
        (lambda f: pless_check(2.0, 1, [1, 1], [1, 0, 1], 2), "length=2.0"),
        (lambda f: pless_check(2, 1.0, [1, 1], [1, 0, 1], 2), "dim=1.0"),
        (lambda f: t1k_recursive(1.0, f, 1), "n=1.0"),
        (lambda f: t1k_recursive(1, f, -1), "h=-1"),
        (lambda f: full_moment_identity(1, f, 0), "h=0"),
        (lambda f: ksum.kloosterman_gl(Field(3), 2.0, 1), "t=2.0"),
        (lambda f: classical.kloosterman_gl_bruteforce(f, 2.0), "t=2.0"),
        (lambda f: ksum.kloosterman(f, 1.0), "a=1.0"),
        (lambda f: dcsum.q_binom(3.0, 1, 2), "n=3.0"),
        (lambda f: dcsum.q_binom(3, 1.0, 2), "r=1.0"),
        (lambda f: dcsum.stabilizer_order(3, 1.0, 8), "r=1.0"),
        (lambda f: dcsum.cell_order(3.0, 1, 8), "n=3.0"),
        (lambda f: dcsum.transversal_size(3, 1.0, 8), "r=1.0"),
        (lambda f: dcsum.gl_order(2.0, 8), "n=2.0"),
        (lambda f: ksum.gl_recursion([1], 2.0, 8), "t=2.0"),
        (lambda f: dcsum.alternating_count(2.0, f), "r=2.0"),
        (lambda f: classical.alternating_count_bruteforce(2.0, f), "r=2.0"),
        (lambda f: dcsum.dc_order(1.0, 8), "n=1.0"),
        (lambda f: dcsum.dc_order(0, 8), "n=0"),
        (lambda f: classical.symplectic_by_form(f, 1.0), "n=1.0"),
        (lambda f: next(classical.enumerate_parabolic(1.0, f)), "n=1.0"),
        (lambda f: next(classical.enumerate_group(1.0, f)), "n=1.0"),
        (lambda f: matfq.gl_iter(f, 2.0), "n=2.0"),
        (lambda f: wcode.weight_prefix(f, {0: 1}, -1), "jmax=-1"),
        (lambda f: dcsum.cell_constants(1.0, f), "n=1.0"),
        (lambda f: dcsum.cell_constants(0, f), "n=0"),
        (lambda f: dcsum.expsum_closed(1, 1, Field(3), 9), "c=9"),
        (lambda f: dcsum.expsum_closed(1, 0, f, 1.0), "c=1.0"),
        (lambda f: dcsum.expsum_dc(1, f, 0), "c=0"),
        (lambda f: Field(3.0), "r=3.0"),
        (lambda f: Field(True), "r=True"),
        (lambda f: Field(0), "r=0"),
        (lambda f: Field(3, 11.0), "modulus=11.0"),
        (lambda f: Field(3, True), "modulus=True"),
        (lambda f: wcode.dual_weight(2, f, 0), "n=2"),
        (lambda f: wcode.dual_weight(-1, f, 0), "n=-1"),
        (lambda f: wcode.dual_weight(True, f, 0), "n=True"),
        (lambda f: wcode.dual_weight(1, f, False), "a=False"),
        (lambda f: wcode.dual_weight(1, f, 0.0), "a=0.0"),
        (lambda f: wcode.dual_weight(1, f, 1.0), "a=1.0"),
    ],
    ids=["moments-float", "moments-fraction", "prefix-count", "prefix-element", "prefix-jmax",
         "recursion", "full-moment", "mk", "stirling-h", "stirling-t", "pless-h", "pless-length",
         "pless-length-float", "pless-dim", "recursion-n", "recursion-negative", "full-moment-zero",
         "gl-kloosterman", "gl-bruteforce", "kloosterman-a", "q-binom-n", "q-binom-r",
         "stabilizer", "cell-order", "transversal", "gl-order", "gl-recursion", "alternating",
         "alternating-bruteforce", "dc-order", "dc-order-zero", "sp-by-form", "parabolic",
         "group", "gl-iter", "prefix-negative-jmax", "cell-constants", "cell-constants-zero",
         "expsum-c-outside", "expsum-c-float", "expsum-dc-zero", "field-float", "field-bool",
         "field-zero", "modulus-float", "modulus-bool", "dual-weight-even-n",
         "dual-weight-negative-n", "dual-weight-bool-n", "dual-weight-bool-a",
         "dual-weight-float-zero", "dual-weight-float-a"],
)
def test_non_int_orders_and_counts_fail_by_name(f8, call, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(f8)


def test_full_moment_identity_values(f8):
    lhs, rhs = full_moment_identity(1, f8, 1)
    assert lhs == rhs == 192


def test_mk_via_identity(f2, f8):
    assert mk_via_identity(1, f8, 1) == 1
    assert mk_via_identity(1, f8, 2) == 55
    assert mk_via_identity(3, f2, 1) == 1
