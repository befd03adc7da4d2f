import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kloosterman import classical as cl
from kloosterman.classical import (
    ORTHOGONAL,
    SYMPLECTIC,
    BudgetError,
    alternating_count,
    cell_order,
    coset_transversal,
    dc_trace_histogram,
    enumerate_double_coset,
    enumerate_group,
    enumerate_parabolic,
    group_order_data,
    iota,
    is_orthogonal,
    is_symplectic,
    jmat,
    parabolic_order,
    sigma_r,
    symplectic_by_form,
    theta_form,
    transversal_size,
)
from kloosterman.gf2r import Field
from kloosterman.matfq import identity, mat_mul, mat_trace

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
    with pytest.raises(ValueError):
        is_symplectic(f2, identity(3), 1)


def test_orthogonal_examples(f2, f4):
    assert is_orthogonal(f2, identity(3), 1)
    for f in (f2, f4):
        assert is_orthogonal(f, sigma_r(1, 1), 1)
        assert is_orthogonal(f, sigma_r(2, 2), 2)
    bad = tuple(tuple(1 if j == 0 else 0 for j in range(3)) for _ in range(3))
    assert not is_orthogonal(f2, bad, 1)  # last column is not e3


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


# ----------------------------------------------------------------------------
# sigma and iota


def test_sigma_examples():
    assert sigma_r(2, 0) == identity(5)
    assert sigma_r(1, 1, SYMPLECTIC) == jmat(1)
    s = sigma_r(2, 1)
    assert [row.index(1) for row in s] == [2, 1, 0, 3, 4]  # swaps e1 and e3
    with pytest.raises(ValueError):
        sigma_r(2, 3)


def test_iota_examples(f2):
    assert iota(f2, identity(5), 2) == identity(4)
    for r in range(3):
        assert iota(f2, sigma_r(2, r), 2) == sigma_r(2, r, SYMPLECTIC)
    assert mat_trace(sigma_r(1, 1)) == 1 and mat_trace(iota(f2, sigma_r(1, 1), 1)) == 0
    with pytest.raises(ValueError):
        iota(f2, tuple(tuple(0 for _ in range(5)) for _ in range(5)), 2)


def test_iota_image_is_symplectic(f2):
    assert all(is_symplectic(f2, iota(f2, w, 2), 2) for w in enumerate_group(2, f2))


def test_iota_is_multiplicative_bijection_on_parabolic(verify_passed):
    verify_passed("iota-bijection-p5-p4", "iota-multiplicative-p5")


def test_trace_shift_under_iota_on_whole_group(verify_passed):
    verify_passed("o52-order", "trace-shift-under-iota-o52")


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
@pytest.mark.parametrize("n, r_field", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_parabolic_matches_product_construction(n, r_field, family):
    f = Field(r_field)
    assert list(enumerate_parabolic(n, f, family)) == list(parabolic_by_products(n, f, family))


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
    with pytest.raises(BudgetError):
        list(enumerate_parabolic(3, Field(2), ORTHOGONAL, budget=10**6))


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
        assert data.stabilizer_order == cl.stabilizer_order(n, r, f.q)
        assert data.cell_size == cell_order(n, r, f.q)


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
    [(1, 1, 6), (1, 2, 60), (1, 3, 504), (2, 1, 720)],
    ids=["sp2-q2", "sp2-q4", "sp2-q8", "sp4-q2"],
)
def test_symplectic_search_matches_exhaustive(n, r, order):
    f = Field(r)
    found = symplectic_by_form(f, n)
    assert len(found) == order
    assert found == symplectic_exhaustive(f.modulus, n)


def test_symplectic_search_budget(f2):
    with pytest.raises(BudgetError):
        symplectic_by_form(f2, 2, budget=719)
    assert len(symplectic_by_form(f2, 2, budget=720)) == 720


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
    # the checks against expsum_closed and the moments would be circular otherwise
    from kloosterman import ksum

    def forbidden(*args, **kwargs):
        raise AssertionError("dc_trace_histogram must not call this")

    for name in ("enumerate_parabolic", "coset_transversal", "gl_iter", "mat_inv"):
        monkeypatch.setattr(cl, name, forbidden)
    for name in ("ktable", "kloosterman", "kloosterman_gl"):
        monkeypatch.setattr(ksum, name, forbidden)
    for family in (ORTHOGONAL, SYMPLECTIC):
        for r in range(3):
            assert sum(dc_trace_histogram(2, r, f4, family).values()) == cell_order(2, r, 4)


@pytest.mark.parametrize("m,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 4), (2, 8), (2, 16), (3, 4)])
def test_trace_pair_counts_match_gl_enumeration(m, q):
    f = Field(q.bit_length() - 1)
    assert cl._trace_pair_counts(m, f) == gl_trace_pair_counts(m, f)


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


def test_group_order_data(f2):
    orders = group_order_data(2, f2)
    assert orders.cells == (48, 288, 384)
    assert orders.parabolic == 48
    for r in range(3):
        assert orders.parabolic * transversal_size(2, r, 2) == orders.cells[r]
        assert orders.parabolic**2 == orders.stabilizers[r] * orders.cells[r]
