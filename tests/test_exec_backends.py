"""Tests for the one SpMV kernel, scipy's compiled CSR routine.

The acceptance gate: int32 and int64 index plans give ``spmv``/
``spmm``/``spmv_batch`` results **bitwise identical** to the naive
re-expansion engine, serial and sharded, with and without ``y``
accumulation.  Dispatch really reaches the compiled kernel for both
index widths; the guard's fallback ladder survives a kernel that
always fails; and prepared-state fault injection reaches the row
pointer the kernel reads.
"""

import numpy as np
import pytest

import repro.exec.plan as plan_mod
from repro.core import candidate_portfolios, encode_spasm
from repro.exec import ExecutionPlan, backends, get_backend
from repro.resilience import (
    ExecutionGuard,
    FaultInjector,
    GuardConfig,
    IntegrityError,
)
from tests.conftest import random_structured_coo


def encode(coo, tile_size=32):
    return encode_spasm(coo, candidate_portfolios()[0], tile_size)


def spy(monkeypatch, name):
    """Wrap the kernel module's ``name`` routine, recording the index
    dtype of every call's row pointer."""
    calls = []
    real = getattr(backends, name)

    def wrapper(*args):
        calls.append(next(a.dtype for a in args
                          if isinstance(a, np.ndarray)))
        return real(*args)

    monkeypatch.setattr(backends, name, wrapper)
    return calls


# -- bitwise parity against the naive engine ---------------------------


class TestBitwiseParity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("index", ["int32", "int64"])
    def test_kernel_matches_naive(self, index, jobs, monkeypatch):
        """Every entry point, sharded or not, equals the naive engine
        bit for bit on random float64 values (so summation order
        matters and is checked)."""
        # Small shards, so jobs > 1 really splits these matrices.
        monkeypatch.setattr(plan_mod, "MIN_SHARD_SLOTS", 8)
        rng = np.random.default_rng(7)
        for kind in ("mixed", "scatter"):
            spasm = encode(random_structured_coo(rng, 96, kind))
            plan = ExecutionPlan.build(spasm, index=index)
            assert plan.cols.dtype == np.dtype(index)
            assert len(plan.shard_bounds(jobs)) == jobs
            nrows, ncols = plan.shape
            x, y = rng.random(ncols), rng.random(nrows)
            xb, yb = rng.random((ncols, 3)), rng.random((nrows, 3))
            xs = rng.random((5, ncols))

            assert np.array_equal(plan.spmv(x, jobs=jobs),
                                  spasm.spmv_naive(x))
            # The plan adds y after the row sums: (A @ x) + y.
            assert np.array_equal(plan.spmv(x, y=y, jobs=jobs),
                                  spasm.spmv_naive(x) + y)
            assert np.array_equal(plan.spmm(xb, jobs=jobs),
                                  spasm.spmm_naive(xb))
            assert np.array_equal(plan.spmm(xb, yb, jobs=jobs),
                                  spasm.spmm_naive(xb) + yb)
            assert np.array_equal(
                plan.spmv_batch(xs, jobs=jobs),
                np.stack([spasm.spmv_naive(row) for row in xs]),
            )

    def test_parity_is_not_vacuous_for_csr(self, rng, monkeypatch):
        """The default int32 plan's spmv runs scipy's csr_matvec."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = spasm.plan()
        calls = spy(monkeypatch, "csr_matvec")
        x = rng.random(plan.shape[1])
        assert np.array_equal(plan.spmv(x), spasm.spmv_naive(x))
        assert calls == [np.dtype(np.int32)]

    def test_int64_plan_reaches_compiled_kernel(self, rng,
                                                monkeypatch):
        """An int64 plan runs csr_matvec/csr_matvecs on its own int64
        row pointer — no slower path takes the wide layout."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = ExecutionPlan.build(spasm, index="int64")
        matvec = spy(monkeypatch, "csr_matvec")
        matvecs = spy(monkeypatch, "csr_matvecs")
        x = rng.random(plan.shape[1])
        xs = rng.random((3, plan.shape[1]))
        plan.spmv(x)
        plan.spmv_batch(xs)
        assert matvec == [np.dtype(np.int64)]
        assert matvecs == [np.dtype(np.int64)]


class TestRegistry:
    def test_unknown_name_raises_with_known_names(self):
        """``get_backend`` knows one name, and says which."""
        assert get_backend("csr") is backends
        with pytest.raises(KeyError, match="'csr'"):
            get_backend("gather")


# -- guard fallback through a failing kernel ---------------------------


class TestGuardWithFailingBackend:
    def test_spmv_falls_back_to_naive(self, rng, failing_kernel):
        spasm = encode(random_structured_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(spasm)
        out = guard.spmv(x)
        assert np.array_equal(out, spasm.spmv_naive(x))
        actions = [e.action for e in guard.log.events]
        assert "retry" in actions and "fallback" in actions

    def test_spmv_raises_when_fallback_disabled(
        self, rng, failing_kernel
    ):
        spasm = encode(random_structured_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(
            spasm, config=GuardConfig(fallback=False, backoff_s=0.0),
        )
        with pytest.raises(IntegrityError, match="fallback"):
            guard.spmv(x)

    def test_batch_falls_back_to_naive(self, rng, failing_kernel):
        spasm = encode(random_structured_coo(rng, 64))
        xs = np.random.default_rng(9).random((3, spasm.shape[1]))
        guard = ExecutionGuard(spasm)
        out = guard.spmv_batch(xs)
        expected = np.stack([spasm.spmv_naive(row) for row in xs])
        assert np.array_equal(out, expected)
        assert any(e.action == "fallback" for e in guard.log.events)

    def test_clean_backend_logs_no_incidents(self, rng):
        spasm = encode(random_structured_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(spasm)
        out = guard.spmv(x)
        assert np.array_equal(out, spasm.spmv_naive(x))
        assert len(guard.log) == 0


# -- prepared-state fault injection ------------------------------------


class TestBackendStateFaults:
    def test_flip_lands_in_memoized_state(self, rng):
        """The row pointer is prepared once; the flip hits exactly
        that array, and releasing scratch re-prepares a clean one."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = spasm.plan()
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x)
        indptr = plan._scratch["indptr"]
        plan.spmv(x)
        assert plan._scratch["indptr"] is indptr

        record = FaultInjector(seed=21).flip_backend_state(plan)
        assert record.surface == "backend"
        assert record.details["array"] == "indptr"
        assert plan._scratch["indptr"] is indptr
        assert not np.array_equal(indptr, backends.prepare(plan))

        plan.release_scratch()
        assert not plan._scratch
        assert np.array_equal(plan.spmv(x), clean)

    def test_flip_reaches_csr_row_pointer(self, rng):
        spasm = encode(random_structured_coo(rng, 64))
        plan = spasm.plan()
        record = FaultInjector(seed=5).flip_backend_state(plan)
        assert record.details["array"] == "indptr"
        assert record.details["dtype"] == "int32"
        indptr = plan._scratch["indptr"]
        assert not np.array_equal(indptr, backends.prepare(plan))

    def test_flip_on_int64_plan_changes_next_spmv(self, rng):
        """The int64 plan's own row pointer takes the flip, and the
        next unguarded spmv reads it."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = ExecutionPlan.build(spasm, index="int64")
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x)

        # Seed 34 flips bit 0 of indptr[4]: in range, so the
        # unchecked kernel reads only plan memory.
        record = FaultInjector(seed=34).flip_backend_state(plan)
        assert record.details["dtype"] == "int64"
        indptr = plan._scratch["indptr"]
        assert indptr.dtype == np.int64
        assert 0 <= indptr.min() and indptr.max() <= plan.n_slots
        assert not np.array_equal(indptr, backends.prepare(plan))
        assert not np.array_equal(plan.spmv(x), clean)
