import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kloosterman

from kloosterman.dcsum import cell_constants
from kloosterman.gf2r import Field
from kloosterman.ksum import moments
from kloosterman.pmi import (
    full_moment_identity,
    mk_via_identity,
    pless_check,
    stirling2,
    t1k_recursive,
)
from kloosterman.wcode import code_bruteforce_wd, dual_enumerate, weight_prefix_closed


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
    # independent route: S(h,t) = t S(h-1,t) + S(h-1,t-1)
    for h in range(1, 11):
        for t in range(1, h + 1):
            assert stirling2(h, t) == t * stirling2(h - 1, t) + stirling2(h - 1, t - 1)


def test_pless_worked_value(f8):
    weights = [w for _, w in dual_enumerate(1, f8)]
    lhs, rhs = pless_check(56, 3, weights, weight_prefix_closed(1, f8, 1), 1)
    assert lhs == rhs == 224


@pytest.mark.parametrize("h", range(1, 11))
def test_pless_identity_on_traced_duals(h, f8, f16):
    for f, dim in ((f8, 3), (f16, 4)):
        size = cell_constants(1, f).size
        weights = [w for _, w in dual_enumerate(1, f)]
        prefix = weight_prefix_closed(1, f, min(size, h))
        lhs, rhs = pless_check(size, dim, weights, prefix, h)
        assert lhs == rhs


def test_pless_degenerate_code():
    # B = {0} of length 6: dual is the full space, prefix is plain binomials
    for h in range(1, 4):
        lhs, rhs = pless_check(6, 0, [0], [math.comb(6, j) for j in range(7)], h)
        assert lhs == rhs == 0


@pytest.mark.parametrize("h", range(1, 11))
def test_pless_on_bruteforced_length12_code(h, f4):
    wd = code_bruteforce_wd(1, f4)
    prefix = [wd.get(j, 0) for j in range(13)]
    lhs, rhs = pless_check(12, 1, [0, 4], prefix, h)
    assert lhs == rhs


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


def test_recursion_spot_values(f2, f8):
    assert t1k_recursive(3, f2, 1).recursive == 1
    assert t1k_recursive(1, f8, 1).recursive == 4
    assert t1k_recursive(1, f8, 3).recursive == -44


def test_recursion_report_fields(f2):
    report = t1k_recursive(3, f2, 1, compare=True)
    assert report.n == 3 and report.q == 2 and report.h == 1
    assert report.d_values == (0, -14336)  # D_1 = -scale
    assert report.direct == 1 and report.match is True


@pytest.mark.parametrize("n,r_field", [(1, 3), (3, 1)])
@pytest.mark.parametrize("h", [1, 3])
def test_recursion_matches_direct_moments(n, r_field, h):
    f = Field(r_field)
    report = t1k_recursive(n, f, h, compare=True)
    assert report.match
    assert report.direct == moments(f, h).t1k


def test_recursion_at_q256_up_to_h25():
    f = Field(8)
    for h in range(1, 26, 2):
        assert t1k_recursive(1, f, h, compare=True).match, h


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


def test_full_moment_identity_values(f2, f8, f16):
    lhs, rhs = full_moment_identity(1, f8, 1)
    assert lhs == rhs == 192
    for n, f in ((1, f8), (1, f16), (3, f2)):
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(n, f, h)
            assert lhs == rhs


def test_mk_via_identity(f2, f8):
    assert mk_via_identity(1, f8, 1) == 1
    assert mk_via_identity(1, f8, 2) == 55
    assert mk_via_identity(3, f2, 1) == 1
    for n, f in ((1, f8), (3, f2)):
        for h in range(1, 6):
            assert mk_via_identity(n, f, h) == moments(f, h).mk


def test_moment_chain_consistency(f8, f16):
    # the h-th power sum of dual weights equals the Stirling side built from
    # the primal weight prefix, dual dimension r
    for f in (f8, f16):
        size = cell_constants(1, f).size
        weights = [w for _, w in dual_enumerate(1, f)]
        for h in range(1, 8):
            direct = sum(w**h for w in weights)
            _, rhs = pless_check(size, f.r, weights, weight_prefix_closed(1, f, min(size, h)), h)
            assert direct == rhs
