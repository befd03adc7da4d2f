import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from itertools import product
from pathlib import Path

import pytest

from kloosterman import classical as cl
from kloosterman import dcsum, guards, ksum, pmi, wcode
from kloosterman.classical import (
    alternating_count_bruteforce,
    coset_transversal,
    enumerate_double_coset,
    enumerate_group,
    enumerate_parabolic,
    iota,
    is_orthogonal,
    is_symplectic,
    jmat,
    kloosterman_gl_bruteforce,
    sigma_r,
    symplectic_by_form,
    theta_form,
)
from kloosterman.dcsum import (
    alternating_count,
    cell_order,
    closed_histogram,
    dc_trace_histogram,
    group_order_data,
    parabolic_order,
    transversal_size,
)
from kloosterman.gf2r import Field
from kloosterman.guards import ORTHOGONAL, SYMPLECTIC, BudgetError
from kloosterman.ksum import moments
from kloosterman.matfq import SingularMatrixError, gl_iter, identity, mat_inv, mat_mul, mat_trace
from kloosterman.pmi import pless_check
from kloosterman.wcode import code_bruteforce_wd, delsarte_check

from _oracles import (
    all_matrices,
    gl_trace_pair_counts,
    parabolic_by_products,
    preserves_theta,
    stream_trace_histogram,
    symplectic_exhaustive,
    theta_isometries,
)


def _basis(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


# ----------------------------------------------------------------------------
# forms


def test_theta_examples(f2, f4):
    for n, f in ((1, f2), (2, f2), (1, f4)):
        dim = 2 * n + 1
        assert theta_form(f, _basis(dim, dim - 1), n) == 1
        assert theta_form(f, _basis(dim, 0), n) == 0
        cross = tuple(1 if i in (0, n) else 0 for i in range(dim))
        assert theta_form(f, cross, n) == 1
    with pytest.raises(ValueError):
        theta_form(f2, (1, 0), 1)


def test_symplectic_examples(f2):
    assert is_symplectic(f2, identity(2), 1)
    assert is_symplectic(f2, jmat(1), 1)
    assert is_symplectic(f2, ((1, 1), (0, 1)), 1)
    assert not is_symplectic(f2, ((1, 1), (1, 1)), 1)
    for w, n in ((identity(3), 1), (((1, 0), (0,)), 1), ((), 0)):
        with pytest.raises(ValueError):  # every row is checked, and n >= 1
            is_symplectic(f2, w, n)


def test_symplectic_verdict_on_every_4x4_matrix_over_f2(f2):
    # non-members too: the verdict is membership in the exhaustive solution set of w^T J w = J
    verdicts = {w: is_symplectic(f2, w, 2) for w in all_matrices(f2, 4, 4)}
    assert len(verdicts) == 2**16
    assert {w for w, member in verdicts.items() if member} == symplectic_exhaustive(f2.modulus, 2)


def test_orthogonal_examples(f2, f4):
    assert is_orthogonal(f2, identity(3), 1)
    for f in (f2, f4):
        assert is_orthogonal(f, sigma_r(1, 1), 1)
        assert is_orthogonal(f, sigma_r(2, 2), 2)
    bad = tuple(tuple(1 if j == 0 else 0 for j in range(3)) for _ in range(3))
    assert not is_orthogonal(f2, bad, 1)  # last column is not e3
    for w, n in ((((1, 0, 0), (0, 1, 0), (0, 0)), 1), (((1,),), 0)):
        with pytest.raises(ValueError):  # every row is checked, and n >= 1
            is_orthogonal(f2, w, n)


def test_orthogonal_iff_theta_preserving_exhaustive_n1(f2, f4):
    for f in (f2,):
        for w in all_matrices(f, 3, 3):
            assert is_orthogonal(f, w, 1) == preserves_theta(f, w, 1)
    # q = 4: same equivalence via the exhaustive column search oracle
    found = theta_isometries(f4, 1)
    assert len(found) == 60  # |Sp(2,4)|
    assert all(is_orthogonal(f4, w, 1) for w in found)
    assert found == set(enumerate_group(1, f4))


def test_orthogonal_iff_theta_preserving_n2(f2):
    found = theta_isometries(f2, 2)
    group = set(enumerate_group(2, f2))
    assert found == group
    assert len(found) == 720
    assert all(is_orthogonal(f2, w, 2) for w in found)
    # negatives: flipping one entry of a group element leaves O(5,2) here, and
    # both predicates must say so
    rng, elements = random.Random(5), sorted(group)
    for _ in range(250):
        rows = [list(row) for row in rng.choice(elements)]
        rows[rng.randrange(5)][rng.randrange(5)] ^= 1
        damaged = tuple(map(tuple, rows))
        assert not preserves_theta(f2, damaged, 2) and not is_orthogonal(f2, damaged, 2)


def test_orthogonal_iff_theta_preserving_sampled_q4(f4):
    rng, verdicts = random.Random(4), set()
    for _ in range(2000):
        w = tuple(tuple(rng.randrange(4) for _ in range(2)) + (int(i == 2),) for i in range(3))
        verdict = is_orthogonal(f4, w, 1)
        assert verdict == preserves_theta(f4, w, 1), w
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_orthogonal_checks_theta_on_every_column_n2_q4(f4):
    # a changed last-row entry in column j < 4 adds its square to theta(c_j), which is then nonzero
    rng = random.Random(24)
    members = rng.sample(list(enumerate_parabolic(2, f4, ORTHOGONAL)), 12)
    for w in members:
        assert is_orthogonal(f4, w, 2)
        rows = [list(row) for row in w]
        rows[4][rng.randrange(4)] ^= rng.randrange(1, 4)
        damaged = tuple(map(tuple, rows))
        assert not is_orthogonal(f4, damaged, 2)
        for v in (w, damaged):
            assert is_orthogonal(f4, v, 2) == preserves_theta(f4, v, 2), v


# ----------------------------------------------------------------------------
# sigma and iota


def test_sigma_examples():
    assert sigma_r(2, 0) == identity(5)
    assert sigma_r(1, 1, SYMPLECTIC) == jmat(1)
    s = sigma_r(2, 1)
    assert [row.index(1) for row in s] == [2, 1, 0, 3, 4]  # swaps e1 and e3
    with pytest.raises(ValueError):
        sigma_r(2, 3)


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_sigma_is_an_involutive_permutation_on_every_cell(f2, family):
    for n in range(1, 4):
        dim = 2 * n + 1 if family == ORTHOGONAL else 2 * n
        unit = [0] * (dim - 1) + [1]
        for r in range(n + 1):
            s = sigma_r(n, r, family)
            assert len(s) == dim and all(sorted(row) == unit for row in s), (n, r)
            assert all(sorted(col) == unit for col in zip(*s)), (n, r)
            assert mat_mul(f2, s, s) == identity(dim), (n, r)
            assert [row.index(1) for row in s] == cl._sigma_perm(n, r, family), (n, r)


def test_iota_examples(f2):
    assert iota(f2, identity(5), 2) == identity(4)
    for r in range(3):
        assert iota(f2, sigma_r(2, r), 2) == sigma_r(2, r, SYMPLECTIC)
    assert mat_trace(sigma_r(1, 1)) == 1 and mat_trace(iota(f2, sigma_r(1, 1), 1)) == 0
    with pytest.raises(ValueError):
        iota(f2, tuple(tuple(0 for _ in range(5)) for _ in range(5)), 2)


def test_iota_image_is_symplectic(f2):
    assert all(is_symplectic(f2, iota(f2, w, 2), 2) for w in enumerate_group(2, f2))


# ----------------------------------------------------------------------------
# parabolic subgroups


@pytest.mark.parametrize(
    "n,r_field,expected",
    [(1, 1, 2), (2, 1, 48), (3, 1, 10752), (1, 2, 12), (2, 2, 11520)],
)
def test_parabolic_counts(n, r_field, expected):
    f = Field(r_field)
    elements = list(enumerate_parabolic(n, f, ORTHOGONAL))
    assert len(elements) == len(set(elements)) == expected == parabolic_order(n, f.q)
    sympl = list(enumerate_parabolic(n, f, SYMPLECTIC))
    assert len(sympl) == len(set(sympl)) == expected


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
@pytest.mark.parametrize("n, r_field", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_parabolic_matches_product_construction(n, r_field, family):
    f = Field(r_field)
    assert list(enumerate_parabolic(n, f, family)) == list(parabolic_by_products(n, f, family))


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_streaming_p_at_n1_keeps_no_row_table(family):
    # streaming keeps one q-row table and the q - 1 Levi rows; a table kept
    # over all of P(1, 256) would hold its 65280 elements' rows (6.4 MB traced)
    f = Field(8)
    f.mul(2, 3)  # the field's own tables are built before tracing
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_parabolic(1, f, family))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == parabolic_order(1, f.q) == 65280
    assert peak < 10**6


def test_parabolic_elements_lie_in_the_groups(f2, f4):
    for n, f in ((1, f2), (2, f2), (1, f4)):
        for w in enumerate_parabolic(n, f, ORTHOGONAL):
            assert is_orthogonal(f, w, n)
        for w in enumerate_parabolic(n, f, SYMPLECTIC):
            assert is_symplectic(f, w, n)


def test_parabolic_is_group_with_zero_blocks(f2, f4):
    # P is exactly the set of group elements with vanishing lower-left block
    # (and vanishing g row for the orthogonal family)
    for n, f in ((1, f2), (2, f2), (1, f4)):
        pset = set(enumerate_parabolic(n, f, ORTHOGONAL))
        structural = {
            w
            for w in enumerate_group(n, f, ORTHOGONAL)
            if all(w[i][j] == 0 for i in range(n, 2 * n) for j in range(n))
            and all(w[2 * n][j] == 0 for j in range(n))
        }
        assert pset == structural


def test_parabolic_budget():
    # |P(3,4)| = 4^6 |GL(3,4)| = 743178240 is above the 10^8 cap
    with pytest.raises(BudgetError):
        list(enumerate_parabolic(3, Field(2), ORTHOGONAL))


# each guarded enumeration at a tiny size: (label, call, the count its guard reads)
GUARDED = [
    ("alternating-2x2-q2", lambda f2: alternating_count_bruteforce(2, f2), 2),
    ("sp2-q2", lambda f2: symplectic_by_form(f2, 1), 6),
    ("parabolic-n1-q2", lambda f2: enumerate_parabolic(1, f2), 2),
    ("transversal-n1-r0-q2", lambda f2: coset_transversal(1, 0, f2), 2),
    ("cell-n1-r1-q2", lambda f2: enumerate_double_coset(1, 1, f2), 4),
    ("group-n1-q2", lambda f2: enumerate_group(1, f2, SYMPLECTIC), 6),
    ("gl2-kloosterman-q2", lambda f2: kloosterman_gl_bruteforce(f2, 2), 16),
    ("code-bruteforce-n1-q2", lambda f2: code_bruteforce_wd(1, f2), 4),
    ("delsarte-n1-q2", lambda f2: delsarte_check(1, f2), 4),
]


@pytest.mark.parametrize("call,size", [g[1:] for g in GUARDED], ids=[g[0] for g in GUARDED])
def test_every_enumeration_obeys_the_one_cap(f2, monkeypatch, call, size):
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", size - 1)
    with pytest.raises(BudgetError):
        out = call(f2)
        if isinstance(out, Iterator):
            next(out)  # a stream must refuse before its first element
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", size)
    out = call(f2)
    if isinstance(out, Iterator):
        assert len(list(out)) == size


def test_over_budget_cell_is_refused_before_p_is_built(monkeypatch):
    # P(1, 2^10) has ~10^6 elements but its cell sigma_1 has ~1.07 * 10^9
    def unbuilt(*args):
        raise AssertionError("the cell's P and transversal were built")

    monkeypatch.setattr(cl, "coset_transversal", unbuilt)
    with pytest.raises(BudgetError):
        next(enumerate_double_coset(1, 1, Field(10)))


def _broken_moment_split(monkeypatch):
    # a trace outside {0, 1}: mk = 3^10000 has 4772 digits, t0k = t1k = 0
    monkeypatch.setattr(ksum, "_kdata", lambda field: ([], Counter({(2, 3): 1})))
    moments(Field(1), 10000)


def _broken_histogram_total(monkeypatch):
    # the cell at (130, 0, GF(2)) has more than 2^16900 elements
    monkeypatch.setattr(dcsum, "cell_order", lambda n, r, q: 0)
    dc_trace_histogram(130, 0, Field(1))


# each guard at a count past the default 4300-digit int-to-str limit
HUGE = [
    ("code-bruteforce", lambda mp: code_bruteforce_wd(3, Field(1)), BudgetError),
    ("delsarte", lambda mp: delsarte_check(3, Field(1)), BudgetError),
    ("alternating", lambda mp: alternating_count_bruteforce(200, Field(1)), BudgetError),
    ("gl-kloosterman", lambda mp: kloosterman_gl_bruteforce(Field(1), 120), BudgetError),
    # the Stirling side is 2^19998 - 1/2
    ("pless-side", lambda mp: pless_check(2, 0, [0], [0, 0, 1], 20000), ArithmeticError),
    ("moment-split", _broken_moment_split, ArithmeticError),
    ("histogram-total", _broken_histogram_total, ArithmeticError),
]


@pytest.mark.parametrize("call,error", [g[1:] for g in HUGE], ids=[g[0] for g in HUGE])
def test_guards_raise_their_own_error_at_any_size(monkeypatch, call, error):
    with pytest.raises(error):
        call(monkeypatch)


# each exact division, by the quantity it names: (name, module, a call that reaches it)
EXACT = [
    ("q-binomial", dcsum, lambda: dcsum.q_binom(4, 2, 2)),
    ("GL trace-pair count", dcsum, lambda: dcsum._trace_pair_counts(2, Field(1))),
    ("equidistributed part", dcsum, lambda: dc_trace_histogram(3, 1, Field(1))),
    ("cell size", dcsum, lambda: closed_histogram(3, Field(1))),
    ("cell scale", dcsum, lambda: closed_histogram(3, Field(1))),
    ("dual weight", wcode, lambda: wcode.dual_weight(1, Field(3), 1)),
    ("sum at j=2, q=8", wcode, lambda: wcode.weight_prefix_closed(1, Field(3), 3)),
    ("Pless column E_2", pmi, lambda: pmi.pless_column(5, [1, 0, 0], 2)),
    ("S(5,3)", pmi, lambda: pmi.stirling2(5, 3)),
    ("Pless side", pmi, lambda: pmi.pless_check(3, 0, [0], [1, 0, 0, 0], 3)),
    ("recursion value", pmi, lambda: pmi.t1k_recursive(3, Field(2), 3)),
    ("moment side", pmi, lambda: pmi.full_moment_identity(3, Field(1), 3)),
    ("prefix side", pmi, lambda: pmi.full_moment_identity(3, Field(1), 3)),
    ("moment at", pmi, lambda: pmi.mk_via_identity(3, Field(1), 3)),
]


@pytest.mark.parametrize("name,module,call", EXACT, ids=[g[0] for g in EXACT])
def test_each_exact_division_raises_naming_its_quantity(
    cold_cells, monkeypatch, name, module, call
):
    exact = guards._exact

    def off_by_one(num, den, what):
        return exact(num + (name in what), den, what)

    monkeypatch.setattr(module, "_exact", off_by_one)
    with pytest.raises(ArithmeticError, match=re.escape(name) + ".* is not integral"):
        call()


RANKED = [
    ("parabolic", lambda n, f2: enumerate_parabolic(n, f2)),
    ("transversal", lambda n, f2: coset_transversal(n, 0, f2)),
    ("cell", lambda n, f2: enumerate_double_coset(n, 0, f2)),
    ("group", lambda n, f2: enumerate_group(n, f2)),
    ("sp-by-form", lambda n, f2: symplectic_by_form(f2, n)),
]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call", [g[1] for g in RANKED], ids=[g[0] for g in RANKED])
def test_every_enumeration_refuses_n_below_one(f2, call, n):
    with pytest.raises(ValueError, match=f"n={n}"):
        out = call(n, f2)
        if isinstance(out, Iterator):
            next(out)  # before its first element


def test_transversal_refuses_r_above_n(f2):
    with pytest.raises(ValueError, match="r=3"):
        coset_transversal(1, 3, f2)


# ----------------------------------------------------------------------------
# transversals and double cosets


@pytest.mark.parametrize(
    "n,r,r_field,expected",
    [(1, 0, 1, 1), (2, 1, 1, 6), (3, 2, 1, 56), (1, 1, 1, 2), (2, 2, 1, 8)],
)
def test_transversal_sizes(n, r, r_field, expected):
    f = Field(r_field)
    for family in (ORTHOGONAL, SYMPLECTIC):
        data = coset_transversal(n, r, f, family)
        assert len(data.transversal) == expected == transversal_size(n, r, f.q)
        assert len(data.parabolic) * len(data.transversal) == cell_order(n, r, f.q)


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
@pytest.mark.parametrize(
    "n,r,q", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (1, 1, 4), (2, 1, 4)]
)
def test_transversal_splits_parabolic_into_cosets(n, r, q, family):
    # P must be the disjoint union of A_r x over the transversal, with A_r
    # found as P intersected with sigma_r P sigma_r (sigma_r is a permutation
    # involution, so conjugating by it permutes rows and columns)
    f = Field(q.bit_length() - 1)
    data = coset_transversal(n, r, f, family)
    p_elements = list(enumerate_parabolic(n, f, family))
    pset = set(p_elements)
    perm = [row.index(1) for row in sigma_r(n, r, family)]
    a_r = [w for w in p_elements if tuple(tuple(w[i][j] for j in perm) for i in perm) in pset]
    seen = set()
    for x in data.transversal:
        coset = {mat_mul(f, a, x) for a in a_r}
        assert not coset & seen
        seen |= coset
    assert seen == pset


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_transversal_rejects_two_representatives_of_one_coset(f2, monkeypatch, family):
    subspaces = cl._subspace_representatives

    def repeating(field, n, r):
        reps = list(subspaces(field, n, r))
        return reps[:-1] + reps[:1]  # same count, one subspace twice

    monkeypatch.setattr(cl, "_subspace_representatives", repeating)
    with pytest.raises(ArithmeticError, match="share a right coset"):
        coset_transversal(2, 1, f2, family)


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_transversal_rejects_an_a_r_count_off_the_formula(f2, monkeypatch, family):
    # |A_r| is counted in P and checked against dcsum.stabilizer_order, its one owner
    monkeypatch.setattr(cl, "stabilizer_order", lambda n, r, q: dcsum.stabilizer_order(n, r, q) + 1)
    with pytest.raises(ArithmeticError, match=re.escape("|A_1| mismatch")):
        coset_transversal(2, 1, f2, family)


@pytest.mark.parametrize(
    "stream", [lambda f: list(enumerate_double_coset(2, 1, f))], ids=["enumerate_double_coset"]
)
def test_parabolic_is_enumerated_once(f2, monkeypatch, stream):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_parabolic(*args, **kwargs)

    monkeypatch.setattr(cl, "enumerate_parabolic", counting)
    stream(f2)
    assert len(calls) == 1


def test_double_coset_is_pairwise_product_set(f2):
    # the streamed cell equals {p sigma_r p'} computed the quadratic way
    p_elements = list(enumerate_parabolic(2, f2, SYMPLECTIC))
    for r in range(3):
        s = sigma_r(2, r, SYMPLECTIC)
        brute = {
            mat_mul(f2, p, mat_mul(f2, s, p2)) for p in p_elements for p2 in p_elements
        }
        cell = list(enumerate_double_coset(2, r, f2, SYMPLECTIC))
        assert len(cell) == len(set(cell)) == cell_order(2, r, 2)
        assert set(cell) == brute


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
def test_double_coset_is_product_in_order(f2, family):
    for r in range(3):
        data = coset_transversal(2, r, f2, family)
        s = sigma_r(2, r, family)
        expected = [
            mat_mul(f2, p, mat_mul(f2, s, x)) for x in data.transversal for p in data.parabolic
        ]
        assert list(enumerate_double_coset(2, r, f2, family)) == expected


@pytest.mark.parametrize(
    "n, r, order",
    [(1, 1, 6), (1, 2, 60), (1, 3, 504), (2, 1, 720), (1, 4, 4080)],
    ids=["sp2-q2", "sp2-q4", "sp2-q8", "sp4-q2", "sp2-q16"],
)
def test_symplectic_search_matches_exhaustive(n, r, order):
    f = Field(r)
    found = symplectic_by_form(f, n)
    assert len(found) == order
    assert found == symplectic_exhaustive(f.modulus, n)


@pytest.mark.parametrize("n, r, evaluations", [(2, 1, 256), (1, 3, 4096)])
def test_symplectic_search_evaluates_the_form_once_per_pair(monkeypatch, n, r, evaluations):
    # q^(4n): one c^T J v per pair of vectors, however many columns are chosen
    calls = []
    real = cl._dot

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cl, "_dot", counting)
    symplectic_by_form(Field(r), n)
    assert len(calls) == evaluations


def test_symplectic_search_budget(f2, monkeypatch):
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", 719)
    with pytest.raises(BudgetError):
        symplectic_by_form(f2, 2)
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", 720)
    assert len(symplectic_by_form(f2, 2)) == 720


def test_symplectic_search_checks_every_leaf(f2, monkeypatch):
    # reject one genuine member: the leaf check must catch it
    real = cl.is_symplectic
    monkeypatch.setattr(cl, "is_symplectic", lambda f, w, n: real(f, w, n) and w != jmat(n))
    with pytest.raises(ArithmeticError):
        symplectic_by_form(f2, 1)
    src = str(Path(cl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from kloosterman import classical as cl\n"
        "from kloosterman.gf2r import Field\n"
        "cl.is_symplectic = lambda f, w, n: w != cl.jmat(n)\n"
        "print(len(cl.symplectic_by_form(Field(1), 1)))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "ArithmeticError" in proc.stderr


# ----------------------------------------------------------------------------
# histograms


def test_histogram_smallest_cell(f2):
    assert dc_trace_histogram(1, 0, f2) == {0: 0, 1: 2}


def test_histogram_n1_q8(f8):
    hist = dc_trace_histogram(1, 0, f8)
    assert sum(hist.values()) == 56
    assert hist[1] == 8
    big = [b for b, c in hist.items() if c == 16]
    zero = [b for b, c in hist.items() if c == 0]
    assert len(big) == 3 and len(zero) == 4
    for b in big:
        assert b != 1 and f8.trace(f8.inv(b ^ 1)) == 0
    for b in zero:
        assert b != 1 and f8.trace(f8.inv(b ^ 1)) == 1


def test_histogram_workers_bit_identical(f2, f4):
    for n, r, f in ((2, 1, f2), (1, 0, f4), (2, 2, f2)):
        base = dc_trace_histogram(n, r, f)
        for workers in (2, 3):
            assert dc_trace_histogram(n, r, f, workers=workers) == base
    with pytest.raises(TypeError):  # workers is keyword-only, so a stray positional fails
        dc_trace_histogram(2, 1, f2, ORTHOGONAL, 10**8)


@pytest.mark.parametrize("family", [ORTHOGONAL, SYMPLECTIC])
@pytest.mark.parametrize("n,q", [(1, 2), (1, 4), (1, 8), (1, 16), (2, 2), (2, 4), (3, 2)])
def test_histogram_matches_streamed_cells(n, q, family):
    f = Field(q.bit_length() - 1)
    for r in range(n + 1):
        assert dc_trace_histogram(n, r, f, family) == stream_trace_histogram(n, r, f, family), r


def test_histogram_uses_no_enumeration_and_no_kloosterman_sums(f4, monkeypatch):
    # the checks against expsum_closed and the moments would be circular otherwise;
    # that no group is enumerated is test_counting_loads_no_matrix_code's part
    def forbidden(*args, **kwargs):
        raise AssertionError("dc_trace_histogram must not call this")

    for name in ("kloosterman", "kloosterman_gl"):
        monkeypatch.setattr(dcsum, name, forbidden)
    monkeypatch.setattr(ksum, "_kdata", forbidden)  # every K value is read from it
    for family in (ORTHOGONAL, SYMPLECTIC):
        for r in range(3):
            assert sum(dc_trace_histogram(2, r, f4, family).values()) == cell_order(2, r, 4)


def test_counting_loads_no_matrix_code():
    # the package, the recursion and every command but verify run on closed counts alone
    src = str(Path(cl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, sys\n"
        "import kloosterman, kloosterman.pmi, kloosterman.wcode\n"
        "from kloosterman.cli import main\n"
        "runs = [['recursion', '--n', '3', '--q', '4', '--h', '3', '--compare'],\n"
        "        ['histogram', '--n', '3', '--q', '2', '--r-coset', '1', '--jmax', '4'],\n"
        "        ['tables', '--q', '8', '--hmax', '3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in runs]\n"
        "print(codes, [m for m in ('kloosterman.matfq', 'kloosterman.classical') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout == "[0, 0, 0] []\n", proc.stderr


@pytest.mark.parametrize("m,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 4), (2, 8), (2, 16), (3, 4)])
def test_trace_pair_counts_match_gl_enumeration(m, q):
    f = Field(q.bit_length() - 1)
    assert dcsum._trace_pair_counts(m, f) == gl_trace_pair_counts(m, f)


def test_symplectic_histograms_match_orthogonal_sizes(f2, f4):
    for n, r, f in ((2, 1, f2), (2, 2, f4)):
        ortho = dc_trace_histogram(n, r, f, ORTHOGONAL)
        sympl = dc_trace_histogram(n, r, f, SYMPLECTIC)
        assert sum(ortho.values()) == sum(sympl.values()) == cell_order(n, r, f.q)


# ----------------------------------------------------------------------------
# counts and orders


def test_alternating_counts(f2):
    assert alternating_count(1, f2) == 0
    assert alternating_count(2, f2) == 1
    assert alternating_count(4, f2) == 28


@pytest.mark.parametrize("count", [alternating_count, alternating_count_bruteforce])
@pytest.mark.parametrize("r", [-1, -2])
def test_alternating_counts_reject_negative_sizes(f2, count, r):
    with pytest.raises(ValueError, match=f"^need an int r >= 0, got r={r}$"):
        count(r, f2)


@pytest.mark.parametrize("r, q", [(r, q) for q in (2, 4) for r in range(6)] + [(6, 2)])
def test_alternating_count_bruteforce_matches_closed_form(r, q):
    f = Field(q.bit_length() - 1)
    assert alternating_count_bruteforce(r, f) == alternating_count(r, f)


@pytest.mark.parametrize("q, expected", [(2, 28), (4, 3024)])
def test_alternating_count_by_inversion(q, expected):
    # an oracle that shares nothing with Pfaffians: a 4 x 4 alternating
    # matrix counts when Gauss-Jordan elimination inverts it
    f = Field(q.bit_length() - 1)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    count = 0
    for entries in product(range(q), repeat=len(pairs)):
        a = [[0] * 4 for _ in range(4)]
        for (i, j), x in zip(pairs, entries):
            a[i][j] = a[j][i] = x
        try:
            mat_inv(f, tuple(map(tuple, a)))
        except SingularMatrixError:
            continue
        count += 1
    assert count == expected == alternating_count(4, f)


ORDERS = [
    ("gl", lambda n: dcsum.gl_order(n, 2)),
    ("parabolic", lambda n: parabolic_order(n, 2)),
    ("group-order-data", lambda n: group_order_data(n, Field(1))),
]


@pytest.mark.parametrize("order", [g[1] for g in ORDERS], ids=[g[0] for g in ORDERS])
def test_order_formulas_refuse_negative_n(order):
    with pytest.raises(ValueError, match="n=-1"):
        order(-1)


@pytest.mark.parametrize(
    "enumerate_gl,name",
    [(gl_iter, "n"), (kloosterman_gl_bruteforce, "t")],
    ids=["gl-iter", "gl-bruteforce"],
)
def test_gl_enumerations_refuse_negative_sizes(f2, enumerate_gl, name):
    with pytest.raises(ValueError, match=f"^need an int {name} >= 0, got {name}=-1$"):
        enumerate_gl(f2, -1)


def test_gl_order_of_size_zero_is_the_trivial_group():
    assert dcsum.gl_order(0, 2) == dcsum.gl_order(0, 4) == 1


def test_dc_order_names_the_n_it_was_given():
    with pytest.raises(ValueError, match=r"^need an int n >= 1, got n=0$"):
        dcsum.dc_order(0, 2)


def test_group_order_data(f2):
    orders = group_order_data(2, f2)
    assert orders.cells == (48, 288, 384)
    assert orders.parabolic == 48
    for r in range(3):
        assert orders.parabolic * transversal_size(2, r, 2) == orders.cells[r]
        assert orders.parabolic**2 == orders.stabilizers[r] * orders.cells[r]
