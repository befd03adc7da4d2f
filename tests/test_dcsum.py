import pytest

from kloosterman.classical import enumerate_parabolic
from kloosterman.dcsum import (
    cell_constants,
    cell_order,
    closed_histogram,
    dc_order,
    dc_trace_histogram,
    expsum_closed,
    expsum_dc,
)
from kloosterman.gf2r import Field
from kloosterman.guards import ORTHOGONAL, SYMPLECTIC
from kloosterman.matfq import mat_trace
from kloosterman.verify import _hist_expsum


def test_cell_constants_examples(f2, f8):
    c = cell_constants(1, f8)
    assert (c.scale, c.cofactor, c.size) == (8, 7, 56)
    c = cell_constants(3, f2)
    assert (c.scale, c.cofactor, c.size) == (14336, 42, 602112)
    c = cell_constants(1, f2)
    assert (c.scale, c.cofactor, c.size) == (2, 1, 2)


def test_cell_constants_reject_even_n(f2):
    with pytest.raises(ValueError):
        cell_constants(2, f2)
    with pytest.raises(ValueError):
        cell_constants(0, f2)


@pytest.mark.parametrize("n,r_field", [(1, 1), (3, 1), (1, 2), (1, 3), (1, 4), (3, 2), (5, 1)])
def test_cell_size_three_ways(n, r_field):
    f = Field(r_field)
    c = cell_constants(n, f)
    assert c.size == dc_order(n, f.q) == cell_order(n, n - 1, f.q)


def test_expsum_closed_examples(f2):
    assert expsum_closed(3, 1, f2) == 0
    assert expsum_closed(3, 3, f2) == 0
    assert expsum_closed(1, 0, f2, 1) == -2
    assert expsum_closed(3, 2, f2, 1) == -14336
    with pytest.raises(ValueError):
        expsum_closed(2, 3, f2)
    with pytest.raises(ValueError):
        expsum_closed(1, 0, f2, 0)


def test_expsum_dc_examples(f2, f4, f8):
    assert expsum_dc(1, f8, 1) == 40  # (-1) * 8 * (-5)
    assert expsum_dc(3, f2, 1) == -14336
    assert expsum_dc(1, f4, 2) == 4  # lambda(g) = -1, K(lambda;g) = -1


def test_expsum_dc_equals_specialized_closed_form(f2, f4, f8, f16):
    for n, f in ((1, f2), (1, f4), (1, f8), (1, f16), (3, f2), (3, f4)):
        for c in f.units():
            assert expsum_dc(n, f, c) == expsum_closed(n, n - 1, f, c)


# every orthogonal cell at (3, 4) and (5, 2)
GAUSS_SUM_CELLS = [(n, r, q) for n, q in ((3, 4), (5, 2)) for r in range(n + 1)]


@pytest.mark.parametrize("n,r,q", GAUSS_SUM_CELLS)
def test_cell_character_sums_equal_closed_gauss_sums(n, r, q):
    f = Field(q.bit_length() - 1)
    hist = dc_trace_histogram(n, r, f, ORTHOGONAL)
    for c in f.units():
        assert _hist_expsum(f, hist, c) == expsum_closed(n, r, f, c), c


def test_trace_count_orthogonal_examples(f2, f4, f8):
    assert closed_histogram(1, f8)[1] == 8
    assert closed_histogram(3, f2) == {0: 293888, 1: 308224}
    assert closed_histogram(1, f4)[0] == 8  # tr((0-1)^{-1}) = tr(1) = 0 at even degree


def test_trace_count_symplectic_examples(f2, f8):
    assert closed_histogram(1, f8, SYMPLECTIC)[0] == 8
    assert closed_histogram(1, f2, SYMPLECTIC)[1] == 0


@pytest.mark.parametrize("r_field", [1, 2, 3])
def test_symplectic_counts_against_direct_enumeration(r_field):
    # P'(2,q) = sigma_0' cell: traces are a + 1/a, each value hit q times
    f = Field(r_field)
    hist = {beta: 0 for beta in f.elements()}
    for w in enumerate_parabolic(1, f, SYMPLECTIC):
        hist[mat_trace(w)] += 1
    assert hist == closed_histogram(1, f, SYMPLECTIC)


def test_closed_histograms_match_enumeration(f2, f4, f8, f16):
    grid = [(1, f2), (1, f4), (1, f8), (1, f16), (5, f2), (5, f4), (7, f2)]
    grid += [(3, Field(r)) for r in (2, 3, 6, 10)]
    grid += [(n, Field(r)) for n in (9, 11) for r in range(1, 7)]
    for n, f in grid:
        assert closed_histogram(n, f, ORTHOGONAL) == dc_trace_histogram(n, n - 1, f)
        assert closed_histogram(n, f, SYMPLECTIC) == dc_trace_histogram(
            n, n - 1, f, SYMPLECTIC
        )


def test_closed_histogram_totals_and_weighted_sum(f16):
    for n, f in ((1, f16), (3, Field(2)), (5, Field(1))):
        for family in (ORTHOGONAL, SYMPLECTIC):
            hist = closed_histogram(n, f, family)
            assert sum(hist.values()) == cell_constants(n, f).size
            weighted = 0
            for beta, count in hist.items():
                if count & 1:
                    weighted ^= beta
            assert weighted == 0


def test_trace_count_rejects_bad_inputs(f2):
    with pytest.raises(ValueError):
        closed_histogram(2, f2)
    with pytest.raises(ValueError):
        closed_histogram(1, f2, "unitary")
