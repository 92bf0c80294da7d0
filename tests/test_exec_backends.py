"""Tests for the one SpMV kernel, scipy's compiled CSR routine.

The acceptance gate: int32 and int64 index plans give ``spmv``/
``spmm``/``spmv_batch`` results **bitwise identical** to the naive
re-expansion engine, serial and sharded, with and without ``y``
accumulation.  Dispatch really reaches the compiled kernel for both
index widths; the guard's fallback ladder survives a kernel that
always fails, answering with the clean path's bits; and plan faults
reach the row pointer the kernel reads, where ``validate()`` sees
them before the kernel does.
"""

import dataclasses

import numpy as np
import pytest

import repro.exec.plan as plan_mod
from repro.core import candidate_portfolios, encode_spasm
from repro.exec import ExecutionPlan, backends, get_backend
from repro.resilience import (
    CAMPAIGN_GUARD,
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


def pointer_spy(monkeypatch):
    """Wrap ``csr_matvec``, recording a copy of the row pointer each
    call reads."""
    seen = []
    real = backends.csr_matvec

    def wrapper(*args):
        seen.append(args[2].copy())
        return real(*args)

    monkeypatch.setattr(backends, "csr_matvec", wrapper)
    return seen


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
            # Each row's sum starts from y, as in the naive scatter.
            assert np.array_equal(plan.spmv(x, y=y, jobs=jobs),
                                  spasm.spmv_naive(x, y))
            assert np.array_equal(plan.spmm(xb, jobs=jobs),
                                  spasm.spmm_naive(xb))
            assert np.array_equal(plan.spmm(xb, yb, jobs=jobs),
                                  spasm.spmm_naive(xb, yb))
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

    def test_fallback_with_y_matches_clean_path(self, rng,
                                                monkeypatch):
        """The naive fallback and the clean plan path accumulate y in
        one order, so a guarded call answers with the same bits
        whichever engine served it."""
        spasm = encode(random_structured_coo(rng, 64))
        nrows, ncols = spasm.shape
        x, y = rng.random(ncols), rng.random(nrows)
        xb, yb = rng.random((ncols, 3)), rng.random((nrows, 3))
        clean = ExecutionGuard(spasm)
        want, want_block = clean.spmv(x, y), clean.spmm(xb, yb)
        assert len(clean.log) == 0

        def fail(*args):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(backends, "spmv", fail)
        monkeypatch.setattr(backends, "spmm", fail)
        spasm._plan = None
        guard = ExecutionGuard(spasm, config=GuardConfig(backoff_s=0.0))
        assert np.array_equal(guard.spmv(x, y), want)
        assert np.array_equal(guard.spmm(xb, yb), want_block)
        assert sum(e.action == "fallback" for e in guard.log.events) == 2

    def test_clean_backend_logs_no_incidents(self, rng):
        spasm = encode(random_structured_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(spasm)
        out = guard.spmv(x)
        assert np.array_equal(out, spasm.spmv_naive(x))
        assert len(guard.log) == 0


# -- row-pointer faults -------------------------------------------------


def flipped_copy(plan, seed):
    """A copy of ``plan`` with one ``flip_plan_array`` flip applied."""
    mutant = dataclasses.replace(plan, cols=plan.cols.copy(),
                                 vals=plan.vals.copy(),
                                 indptr=plan.indptr.copy())
    return mutant, FaultInjector(seed=seed).flip_plan_array(mutant)


class TestBackendStateFaults:
    """The kernel's one piece of per-plan state is the plan's own
    checksummed row pointer, so a flip in it is a ``plan`` fault."""

    def test_flip_lands_in_memoized_state(self, rng):
        """``prepare`` hands out ``plan.indptr`` itself; a plan flip
        lands in exactly that array, ``validate()`` refuses the plan,
        and a rebuild serves the clean answer."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = spasm.plan()
        assert backends.prepare(plan) is plan.indptr
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x)
        indptr = plan.indptr

        # Seed 0 sends indptr[41] out of range: never run the kernel.
        record = FaultInjector(seed=0).flip_plan_array(plan)
        assert record.surface == "plan"
        assert record.details["array"] == "indptr"
        assert plan.indptr is indptr
        assert backends.prepare(plan) is indptr
        assert plan.validate()

        assert np.array_equal(ExecutionPlan.build(spasm).spmv(x), clean)

    def test_flip_reaches_csr_row_pointer(self, rng, monkeypatch):
        """An in-range flip reaches the pointer csr_matvec reads."""
        spasm = encode(random_structured_coo(rng, 64))
        pristine = spasm.plan()
        plan, record = flipped_copy(pristine, seed=2)
        assert record.details["array"] == "indptr"
        assert record.details["dtype"] == "int32"
        assert not np.array_equal(plan.indptr, pristine.indptr)
        seen = pointer_spy(monkeypatch)
        plan.spmv(np.ones(plan.shape[1]))
        assert len(seen) == 1
        assert np.array_equal(seen[0], plan.indptr)

    def test_flip_on_int64_plan_changes_next_spmv(self, rng):
        """The int64 plan's own row pointer takes the flip, the next
        unguarded spmv reads it, and validate() sees it first."""
        spasm = encode(random_structured_coo(rng, 64))
        plan = ExecutionPlan.build(spasm, index="int64")
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x)

        # Seed 2 flips bit 0 of indptr[17]: in range, so the
        # unchecked kernel reads only plan memory.
        record = FaultInjector(seed=2).flip_plan_array(plan)
        assert record.details == {"array": "indptr", "byte": 136,
                                  "bit": 0, "dtype": "int64"}
        assert plan.indptr.dtype == np.int64
        assert 0 <= plan.indptr.min()
        assert plan.indptr.max() <= plan.n_slots
        assert plan.validate()
        assert not np.array_equal(plan.spmv(x), clean)

    def test_every_seeded_flip_is_refused(self):
        """Seeds 0-39 on a 64x64 int64 plan: several land in
        ``indptr`` (most of those out of range), and validate()
        refuses every flipped plan before a kernel could read it."""
        spasm = encode(random_structured_coo(np.random.default_rng(0),
                                             64))
        pristine = ExecutionPlan.build(spasm, index="int64")
        hits = []
        for seed in range(40):
            plan, record = flipped_copy(pristine, seed)
            assert plan.validate(), record.location
            if record.details["array"] == "indptr":
                hits.append(seed)
        assert len(hits) >= 10

    def test_guard_never_dispatches_flipped_pointer(self, rng,
                                                   monkeypatch):
        """Under CAMPAIGN_GUARD the guard revalidates before every
        dispatch: csr_matvec never sees the flipped row pointer, and
        the answer is the clean one bit for bit.  (The row oracle's
        own small plan runs through csr_matvec too; every other
        pointer the kernel reads is the pristine plan's.)"""
        spasm = encode(random_structured_coo(rng, 64))
        x = np.random.default_rng(13).random(spasm.shape[1])
        guard = ExecutionGuard(spasm, config=CAMPAIGN_GUARD)
        clean = guard.spmv(x)
        plan = spasm.plan()
        pristine = plan.indptr.copy()
        record = FaultInjector(seed=0).flip_plan_array(plan)
        assert record.details["array"] == "indptr"
        flipped = plan.indptr.copy()
        seen = pointer_spy(monkeypatch)
        assert np.array_equal(guard.spmv(x), clean)
        oracle = guard._oracle.plan.indptr
        answers = [p for p in seen if not np.array_equal(p, oracle)]
        assert answers
        for pointer in seen:
            assert not np.array_equal(pointer, flipped[-pointer.size:])
        for pointer in answers:
            assert np.array_equal(pointer, pristine[-pointer.size:])
        assert any(e.kind == "detect" for e in guard.log.events)


def test_row_past_matrix_never_reaches_coo_tocsr(monkeypatch):
    """A slot row ``>= nrows`` (a recompiled corrupt stream) builds a
    plan that validate() refuses on coverage, and never reaches the
    unchecked ``coo_tocsr`` scatter."""
    from repro.exec.policy import plan_findings

    calls = []
    real = backends.coo_tocsr

    def spy_tocsr(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(backends, "coo_tocsr", spy_tocsr)
    rows = np.array([1, 16, 3], dtype=np.int64)
    plan = ExecutionPlan.from_slots(
        (16, 16), rows, np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]),
        digest="x" * 64, source_nnz=3,
    )
    assert not calls
    assert plan.indptr[-1] == 2 and plan.n_slots == 3
    assert [f.invariant for f in plan_findings(plan)] == ["coverage"]
    ExecutionPlan.from_slots(
        (16, 16), np.array([1, 15, 3]), np.array([0, 1, 2]),
        np.array([1.0, 2.0, 3.0]), digest="x" * 64, source_nnz=3,
    )
    assert len(calls) == 1
