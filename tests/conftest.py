"""Shared fixtures: the two workhorse grids and their dyadic block sets,
and the allocation-peak probe of the memory bounds.

Session scope keeps the FFT tables and block symbols tabulated once; every
fixture object is treated as read-only by the tests.
"""

import tracemalloc

import numpy as np
import pytest

import lplab

TAU = 2.0 * np.pi


@pytest.fixture(scope="session")
def grid1():
    return lplab.TorusGrid(1, TAU, 256)


@pytest.fixture(scope="session")
def grid2():
    return lplab.TorusGrid(2, TAU, 64)


@pytest.fixture(scope="session")
def small1():
    """Coarse 1d grid, cheap enough for O(N^2) direct-sum oracles."""
    return lplab.TorusGrid(1, TAU, 16)


@pytest.fixture(scope="session")
def small2():
    return lplab.TorusGrid(2, TAU, 8)


@pytest.fixture(scope="session")
def blocks1(grid1):
    return lplab.build_blocks(grid1)


@pytest.fixture(scope="session")
def blocks2(grid2):
    return lplab.build_blocks(grid2)


@pytest.fixture(scope="session")
def sharp1(grid1):
    return lplab.build_blocks(grid1, family=lplab.SHARP)


@pytest.fixture(scope="session")
def sharp2(grid2):
    return lplab.build_blocks(grid2, family=lplab.SHARP)


@pytest.fixture
def traced_peak():
    """fn(*args, **kwargs) -> (its result, the peak bytes tracemalloc saw
    allocated during the call, counted from the call's start)."""

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
