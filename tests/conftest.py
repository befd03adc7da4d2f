import time

import pytest

from kloosterman.classical import ORTHOGONAL
from kloosterman.gf2r import Field

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
def f32():
    return Field(5)


@pytest.fixture(scope="session")
def dc32(f2):
    """The 602112-element cell's histogram, streamed by the oracle, with wall time."""
    t0 = time.perf_counter()
    hist = stream_trace_histogram(3, 2, f2, ORTHOGONAL)
    return hist, time.perf_counter() - t0
