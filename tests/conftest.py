"""Shared fixtures: small topology instances reused across test modules.

Module-scoped so expensive constructions (field setup, adjacency
building) run once per session; topologies are immutable after
construction, so sharing is safe.
"""

from __future__ import annotations

import pytest

from repro.topology import MLFM, OFT, Dragonfly, FatTree2L, FatTree3L, HyperX2D, SlimFly


@pytest.fixture(scope="session")
def sf5():
    return SlimFly(5)


@pytest.fixture(scope="session")
def sf5_ceil():
    return SlimFly(5, "ceil")


@pytest.fixture(scope="session")
def sf7():
    return SlimFly(7)


@pytest.fixture(scope="session")
def sf8():
    return SlimFly(8)


@pytest.fixture(scope="session")
def sf9():
    return SlimFly(9)


@pytest.fixture(scope="session")
def mlfm4():
    return MLFM(4)


@pytest.fixture(scope="session")
def mlfm5():
    return MLFM(5)


@pytest.fixture(scope="session")
def oft3():
    return OFT(3)


@pytest.fixture(scope="session")
def oft4():
    return OFT(4)


@pytest.fixture(scope="session")
def hyperx():
    return HyperX2D.balanced(9)


@pytest.fixture(scope="session")
def ft2():
    return FatTree2L(8)


@pytest.fixture(scope="session")
def ft3():
    return FatTree3L(4)


@pytest.fixture(scope="session")
def dragonfly():
    return Dragonfly(2)


@pytest.fixture(scope="session")
def all_diameter2(sf5, mlfm4, oft4, hyperx, ft2):
    """The diameter-two topologies used in cross-cutting invariant tests."""
    return [sf5, mlfm4, oft4, hyperx, ft2]


@pytest.fixture(scope="session")
def paper_trio(sf5, mlfm4, oft4):
    """The three topologies the paper evaluates, at test scale."""
    return [sf5, mlfm4, oft4]


@pytest.fixture
def fresh_loader():
    """Reset the kernel module's load cache around a test, restoring the
    (possibly successful) cached attempt afterwards so test order
    doesn't matter."""
    from repro.sim.vec import kernel as kernel_mod

    saved = (kernel_mod._mod, kernel_mod._attempted, kernel_mod.load_error)
    kernel_mod._reset_for_tests()
    try:
        yield
    finally:
        kernel_mod._mod, kernel_mod._attempted, kernel_mod.load_error = saved


@pytest.fixture
def no_kernel(fresh_loader, monkeypatch):
    """The compiled kernel is unavailable for one test, as on a machine
    without a C compiler: ``backend="kernel"`` falls back to object."""
    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
