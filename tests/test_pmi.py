import os
import subprocess
import sys
from pathlib import Path

import pytest

import kloosterman

from kloosterman.gf2r import Field
from kloosterman.pmi import full_moment_identity, mk_via_identity, pless_check, stirling2, t1k_recursive


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


def test_recursion_report_fields(f2):
    report = t1k_recursive(3, f2, 1, compare=True)
    assert report.n == 3 and report.q == 2 and report.h == 1
    assert report.d_values == (0, -14336)  # D_1 = -scale
    assert report.direct == 1 and report.match is True


def test_recursion_at_q256_up_to_h25():
    f = Field(8)
    for h in range(1, 26, 2):
        assert t1k_recursive(1, f, h, compare=True).match, h


@pytest.mark.parametrize("n,r_field", [(1, 12), (5, 8), (7, 6)])
def test_recursion_matches_direct_up_to_h25(n, r_field):
    f = Field(r_field)
    for h in range(1, 26, 2):
        assert t1k_recursive(n, f, h, compare=True).match, h


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


def test_full_moment_identity_values(f8):
    lhs, rhs = full_moment_identity(1, f8, 1)
    assert lhs == rhs == 192


def test_mk_via_identity(f2, f8):
    assert mk_via_identity(1, f8, 1) == 1
    assert mk_via_identity(1, f8, 2) == 55
    assert mk_via_identity(3, f2, 1) == 1
