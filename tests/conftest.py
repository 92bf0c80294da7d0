"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.exec import backends
from repro.matrix.coo import COOMatrix


@pytest.fixture
def rng():
    """Deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng):
    """A 32x32 dense array with ~25% random occupancy."""
    dense = np.where(rng.random((32, 32)) < 0.25, rng.random((32, 32)), 0.0)
    dense[0, 0] = 1.0  # guarantee at least one non-zero
    return dense


@pytest.fixture
def small_coo(small_dense):
    """COO view of ``small_dense``."""
    return COOMatrix.from_dense(small_dense)


@pytest.fixture
def block_diag_coo(rng):
    """A 64x64 matrix of dense 4x4 diagonal blocks."""
    dense = np.zeros((64, 64))
    for b in range(0, 64, 4):
        dense[b : b + 4, b : b + 4] = rng.uniform(0.5, 1.5, (4, 4))
    return COOMatrix.from_dense(dense)


def random_structured_coo(rng, n=64, kind="mixed"):
    """Helper used by property-style tests: a structured random matrix."""
    dense = np.zeros((n, n))
    if kind in ("mixed", "blocks"):
        for __ in range(n // 8):
            r = int(rng.integers(0, n - 4))
            c = int(rng.integers(0, n - 4))
            dense[r : r + 4, c : c + 4] = rng.uniform(0.5, 1.5, (4, 4))
    if kind in ("mixed", "scatter"):
        mask = rng.random((n, n)) < 0.02
        dense[mask] = rng.uniform(0.5, 1.5, size=int(mask.sum()))
    if not dense.any():
        dense[0, 0] = 1.0
    return COOMatrix.from_dense(dense)


@pytest.fixture
def failing_kernel(monkeypatch):
    """The kernel's ``spmv``/``spmm`` raise for the test's duration —
    proves the guard ladder survives a kernel that always blows up."""

    def fail(*args, **kwargs):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setattr(backends, "spmv", fail)
    monkeypatch.setattr(backends, "spmm", fail)
