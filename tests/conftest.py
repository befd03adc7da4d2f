import time

import pytest

from kloosterman import pmi
from kloosterman.classical import ORTHOGONAL
from kloosterman.gf2r import Field
from kloosterman.verify import SUITES, run_suite

from _oracles import stream_trace_histogram


@pytest.fixture(scope="session")
def f2():
    return Field(1)


@pytest.fixture(scope="session")
def f4():
    return Field(2)


@pytest.fixture(scope="session")
def f8():
    return Field(3)


@pytest.fixture(scope="session")
def f16():
    return Field(4)


@pytest.fixture(scope="session")
def dc32(f2):
    """The 602112-element cell's histogram, streamed by the oracle, with wall time."""
    t0 = time.perf_counter()
    hist = stream_trace_histogram(3, 2, f2, ORTHOGONAL)
    return hist, time.perf_counter() - t0


@pytest.fixture(scope="session")
def verify_suites():
    """Each `verify` suite's checks, in order, every suite run once per session."""
    return {name: run_suite(name) for name in SUITES}


@pytest.fixture(scope="session")
def verify_all(verify_suites):
    """Every check of `verify all`, in order."""
    return [check for checks in verify_suites.values() for check in checks]


@pytest.fixture(scope="session")
def verify_passed(verify_all):
    """Asserts that the named checks of `verify all` ran and passed.

    The identities those checks cover are computed once, in the suites;
    tests name the checks instead of restating them.
    """
    by_name = {check.name: check for check in verify_all}

    def passed(*names):
        bad = [name for name in names if name not in by_name or not by_name[name].ok]
        assert not bad, f"verify checks missing or failing: {bad}"

    return passed


@pytest.fixture
def cold_cells():
    """Empties the kept recursion of each cell pair, the one per-cell memo,
    before and after the test."""
    pmi._recursion.cache_clear()
    yield
    pmi._recursion.cache_clear()
