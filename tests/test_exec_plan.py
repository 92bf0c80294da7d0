"""Tests for the compiled SpMV execution plans (:mod:`repro.exec`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidate_portfolios, encode_spasm
from repro.exec import ExecutionPlan, PLAN_STAGE, stream_digest
from repro.matrix.coo import COOMatrix
from repro.pipeline.cache import ArtifactCache
from tests.conftest import random_structured_coo


def integer_coo(rng, n=64, kind="mixed"):
    """A structured matrix with small-integer values.

    Integer-valued float64 sums are exact in any accumulation order, so
    plan-vs-naive comparisons can demand strict equality rather than
    allclose.
    """
    coo = random_structured_coo(rng, n, kind)
    vals = rng.integers(1, 8, size=coo.nnz).astype(np.float64)
    return COOMatrix(rows=coo.rows, cols=coo.cols, vals=vals,
                     shape=coo.shape)


def encode(coo, tile_size=32, portfolio_idx=0):
    portfolio = candidate_portfolios()[portfolio_idx]
    return encode_spasm(coo, portfolio, tile_size)


class TestPlanCorrectness:
    @pytest.mark.parametrize("kind", ["mixed", "blocks", "scatter"])
    def test_spmv_exact_vs_naive(self, rng, kind):
        coo = integer_coo(rng, 96, kind)
        spasm = encode(coo)
        x = rng.integers(0, 5, size=coo.shape[1]).astype(np.float64)
        plan = spasm.plan()
        assert np.array_equal(plan.spmv(x), spasm.spmv_naive(x))

    def test_spmv_matches_dense(self, rng, small_dense):
        spasm = encode(COOMatrix.from_dense(small_dense))
        x = rng.random(small_dense.shape[1])
        assert np.allclose(spasm.plan().spmv(x), small_dense @ x)

    def test_spmv_with_initial_y(self, rng, small_dense):
        spasm = encode(COOMatrix.from_dense(small_dense))
        x = rng.random(small_dense.shape[1])
        y0 = rng.random(small_dense.shape[0])
        assert np.allclose(
            spasm.plan().spmv(x, y0), small_dense @ x + y0
        )

    def test_edge_tiles_past_matrix_boundary(self, rng):
        # 50x50 with tile 32: the last tile row/column overhang the
        # matrix edge; padding slots must not read or write past it.
        dense = np.where(
            rng.random((50, 50)) < 0.3, rng.random((50, 50)), 0.0
        )
        dense[49, 49] = 1.0
        spasm = encode(COOMatrix.from_dense(dense), tile_size=32)
        x = rng.random(50)
        plan = spasm.plan()
        assert plan.seg_rows.max() < 50
        assert plan.cols.max() < 50
        assert np.allclose(plan.spmv(x), dense @ x)

    @pytest.mark.parametrize("kind", ["mixed", "blocks"])
    def test_spmm_exact_vs_naive(self, rng, kind):
        coo = integer_coo(rng, 64, kind)
        spasm = encode(coo)
        x_block = rng.integers(0, 5, size=(64, 5)).astype(np.float64)
        assert np.array_equal(
            spasm.plan().spmm(x_block), spasm.spmm_naive(x_block)
        )

    def test_spmm_blocked_matches_unblocked(self, rng, small_dense):
        spasm = encode(COOMatrix.from_dense(small_dense))
        x_block = rng.random((32, 7))
        plan = spasm.plan()
        assert np.array_equal(
            plan.spmm(x_block, block_size=2), plan.spmm(x_block)
        )

    def test_diagonal(self, rng, small_dense):
        spasm = encode(COOMatrix.from_dense(small_dense))
        assert np.array_equal(
            spasm.plan().diagonal(), np.diag(small_dense)
        )

    def test_shape_validation(self, rng, small_coo):
        plan = encode(small_coo).plan()
        with pytest.raises(ValueError):
            plan.spmv(np.zeros(7))
        with pytest.raises(ValueError):
            plan.spmv(np.zeros(32), y=np.zeros(7))
        with pytest.raises(ValueError):
            plan.spmm(np.zeros((7, 2)))

    def test_delegation_is_bitwise(self, rng, small_dense):
        # SpasmMatrix.spmv IS the plan execution now.
        spasm = encode(COOMatrix.from_dense(small_dense))
        x = rng.random(32)
        assert np.array_equal(spasm.spmv(x), spasm.plan().spmv(x))


class TestSharding:
    def test_jobs_bitwise_determinism(self, rng):
        # Large enough to clear MIN_SHARD_SLOTS so sharding engages.
        n = 512
        dense = np.where(
            rng.random((n, n)) < 0.2, rng.random((n, n)), 0.0
        )
        spasm = encode(COOMatrix.from_dense(dense))
        plan = spasm.plan()
        assert plan.n_slots >= 2 * 16384
        assert len(plan.shard_bounds(4)) > 1
        x = rng.random(n)
        serial = plan.spmv(x, jobs=1)
        for jobs in (2, 4, 7):
            assert np.array_equal(plan.spmv(x, jobs=jobs), serial)
        x_block = rng.random((n, 3))
        assert np.array_equal(
            plan.spmm(x_block, jobs=4), plan.spmm(x_block, jobs=1)
        )

    def test_shard_bounds_partition_segments(self, rng):
        n = 512
        dense = np.where(
            rng.random((n, n)) < 0.2, rng.random((n, n)), 0.0
        )
        plan = encode(COOMatrix.from_dense(dense)).plan()
        bounds = plan.shard_bounds(4)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == plan.n_segments
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_small_plan_collapses_to_one_shard(self, small_coo):
        plan = encode(small_coo).plan()
        assert plan.shard_bounds(8) == [(0, plan.n_segments)]

    def test_jobs_validation(self, small_coo):
        plan = encode(small_coo).plan()
        with pytest.raises(ValueError):
            plan.shard_bounds(0)


class TestPlanCache:
    def test_lazy_cache_reuses_plan(self, small_coo):
        spasm = encode(small_coo)
        assert spasm.plan() is spasm.plan()

    def test_cache_invalidated_when_stream_changes(self, rng, small_coo):
        spasm = encode(small_coo)
        x = rng.random(32)
        before = spasm.plan()
        y_before = spasm.spmv(x)
        spasm.values[0, 0] += 1.0
        after = spasm.plan()
        assert after is not before
        assert after.digest != before.digest
        assert not np.array_equal(spasm.spmv(x), y_before)

    def test_digest_covers_positions(self, small_coo):
        spasm = encode(small_coo)
        d0 = stream_digest(spasm)
        spasm.words[0] += 1
        assert stream_digest(spasm) != d0

    def test_persisted_plan_roundtrip(self, tmp_path, small_coo):
        spasm = encode(small_coo)
        cache = ArtifactCache(tmp_path)
        built = ExecutionPlan.build(spasm, cache=cache)
        assert cache.load(PLAN_STAGE, built.digest[:40]) is not None
        loaded = ExecutionPlan.build(spasm, cache=cache)
        assert loaded.digest == built.digest
        assert np.array_equal(loaded.vals, built.vals)
        assert np.array_equal(loaded.cols, built.cols)

    def test_stale_persisted_entry_rejected(self, tmp_path, small_coo):
        spasm = encode(small_coo)
        cache = ArtifactCache(tmp_path)
        built = ExecutionPlan.build(spasm, cache=cache)
        spasm.values[0, 0] += 1.0
        rebuilt = ExecutionPlan.build(spasm, cache=cache)
        assert rebuilt.digest != built.digest

    def test_plan_pass_in_compiler(self, tmp_path, small_coo):
        from repro.core.framework import SpasmCompiler

        compiler = SpasmCompiler(
            build_plan=True, cache_dir=tmp_path
        )
        program = compiler.compile(small_coo)
        assert program.plan is not None
        stages = {e.name: e.cache for e in program.trace.events}
        assert stages["plan"] == "miss"
        again = SpasmCompiler(
            build_plan=True, cache_dir=tmp_path
        ).compile(small_coo)
        stages = {e.name: e.cache for e in again.trace.events}
        assert stages["plan"] == "hit"
        assert np.array_equal(again.plan.vals, program.plan.vals)


class TestFaultTolerance:
    """Worker faults and single-bit corruption of the plan arrays."""

    @pytest.fixture
    def sharded_plan(self, rng):
        n = 512
        dense = np.where(
            rng.random((n, n)) < 0.2, rng.random((n, n)), 0.0
        )
        plan = encode(COOMatrix.from_dense(dense)).plan()
        assert len(plan.shard_bounds(4)) > 1
        return plan

    def test_worker_exception_reraised_pool_survives(
        self, rng, sharded_plan
    ):
        import threading

        from repro.exec import set_shard_fault_hook

        plan = sharded_plan
        x = rng.random(plan.shape[1])
        serial = plan.spmv(x, jobs=1)

        class Boom(RuntimeError):
            pass

        state = {"calls": 0}

        def kill_first(lo, hi):
            state["calls"] += 1
            if state["calls"] == 1:
                raise Boom("shard died")

        previous = set_shard_fault_hook(kill_first)
        try:
            with pytest.raises(Boom):
                plan.spmv(x, jobs=4)
        finally:
            set_shard_fault_hook(previous)
        # The shared pool is not poisoned: the very next sharded call
        # completes bitwise identically, on the same bounded thread
        # count (no orphaned workers accumulate per failure).
        threads_after_failure = threading.active_count()
        assert np.array_equal(plan.spmv(x, jobs=4), serial)
        for _ in range(3):
            plan.spmv(x, jobs=4)
        assert threading.active_count() <= threads_after_failure

    def test_keyboard_interrupt_reraised_pool_survives(
        self, rng, sharded_plan
    ):
        from repro.exec import set_shard_fault_hook

        plan = sharded_plan
        x = rng.random(plan.shape[1])
        serial = plan.spmv(x, jobs=1)
        state = {"calls": 0}

        def interrupt_first(lo, hi):
            state["calls"] += 1
            if state["calls"] == 1:
                raise KeyboardInterrupt()

        previous = set_shard_fault_hook(interrupt_first)
        try:
            with pytest.raises(KeyboardInterrupt):
                plan.spmv(x, jobs=4)
        finally:
            set_shard_fault_hook(previous)
        assert np.array_equal(plan.spmv(x, jobs=4), serial)

    def test_validate_clean_plan(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        assert encode(coo).plan().validate() == []

    def test_torn_build_keeps_pristine_label(
        self, rng, tmp_path, monkeypatch
    ):
        """A live-stream mutation landing while the plan compiles must
        not reach a plan labeled pristine: the build hashes and compiles
        its own copy, so the plan computes the pristine matrix under the
        pristine digest, is cached only under the pristine key, and the
        next ``plan()`` sees the mutation and rebuilds."""
        from repro.exec.plan import _plan_cache_key

        spasm = encode(integer_coo(rng, n=64))
        pristine_digest = stream_digest(spasm)
        cache = ArtifactCache(tmp_path)
        x = rng.random(spasm.shape[1])
        expected = spasm.spmv_naive(x)

        real_compile = ExecutionPlan._compile.__func__
        tears = {"left": 1}

        def torn_compile(cls, sp, digest, **kw):
            if tears["left"]:
                tears["left"] -= 1
                spasm.values.reshape(-1)[0] += 1.0
            return real_compile(cls, sp, digest, **kw)

        monkeypatch.setattr(
            ExecutionPlan, "_compile", classmethod(torn_compile)
        )
        plan = spasm.plan(cache=cache)
        monkeypatch.setattr(
            ExecutionPlan, "_compile", classmethod(real_compile)
        )
        assert tears["left"] == 0
        mutated_digest = stream_digest(spasm)
        assert mutated_digest != pristine_digest
        # The plan's label describes the matrix it computes.
        assert plan.digest == pristine_digest
        assert np.array_equal(plan.spmv(x), expected)
        # Cached under the pristine key only.
        assert cache.load(
            PLAN_STAGE, _plan_cache_key(pristine_digest, None, None)
        ) is not None
        mutated_key = _plan_cache_key(mutated_digest, None, None)
        assert cache.load(PLAN_STAGE, mutated_key) is None
        # The next acquisition sees the live mutation and rebuilds.
        rebuilt = spasm.plan(cache=cache)
        assert rebuilt is not plan
        assert rebuilt.digest == mutated_digest
        assert np.array_equal(rebuilt.spmv(x), spasm.spmv_naive(x))
        assert not np.array_equal(rebuilt.spmv(x), expected)

    def test_endlessly_mutating_stream_builds_consistent_plan(
        self, rng, monkeypatch
    ):
        """A stream that never holds still still gets a self-consistent
        plan: labeled with the digest of the copy it was built from,
        and computing that copy's matrix."""
        spasm = encode(integer_coo(rng, n=64))
        x = rng.random(spasm.shape[1])
        real_compile = ExecutionPlan._compile.__func__
        seen = []

        def torn_compile(cls, sp, digest, **kw):
            spasm.values.reshape(-1)[0] += 1.0
            seen.append(sp)
            return real_compile(cls, sp, digest, **kw)

        monkeypatch.setattr(
            ExecutionPlan, "_compile", classmethod(torn_compile)
        )
        plans = [ExecutionPlan.build(spasm) for _ in range(3)]
        assert len(seen) == 3
        for plan, built_from in zip(plans, seen):
            assert built_from is not spasm
            assert plan.digest == stream_digest(built_from)
            assert np.array_equal(plan.spmv(x), built_from.spmv_naive(x))
        assert len({plan.digest for plan in plans}) == 3


# -- hypothesis: any single-bit flip in any plan array is caught --------

_FLIP_SPASM = encode(
    random_structured_coo(np.random.default_rng(99), 64, "mixed"),
    tile_size=16,
)
_FLIP_PLAN = _FLIP_SPASM.plan()
_FLIP_ARRAYS = ("cols", "vals", "seg_starts", "seg_rows")


@settings(max_examples=40, deadline=None)
@given(
    which=st.integers(0, len(_FLIP_ARRAYS) - 1),
    pos=st.integers(0, 2**30),
    bit=st.integers(0, 7),
)
def test_any_plan_bit_flip_is_caught(which, pos, bit):
    """Every single-bit corruption of every executable plan array is
    flagged by validate() (checksum + invariants), the check the guard
    and the plan caches run.  The flip is byte-addressed so compact
    int32 arrays are covered bit for bit."""
    import dataclasses

    name = _FLIP_ARRAYS[which]
    mutated = dataclasses.replace(
        _FLIP_PLAN,
        cols=_FLIP_PLAN.cols.copy(),
        vals=_FLIP_PLAN.vals.copy(),
        seg_starts=_FLIP_PLAN.seg_starts.copy(),
        seg_rows=_FLIP_PLAN.seg_rows.copy(),
    )
    arr = getattr(mutated, name).reshape(-1).view(np.uint8)
    idx = pos % arr.size
    arr[idx] ^= np.uint8(1 << bit)
    problems = mutated.validate()
    assert problems, (
        f"flip of bit {bit} in {name}[{idx}] went undetected"
    )


class TestIntegration:
    def test_operator_uses_plan(self, rng, small_dense):
        from repro.solvers.operator import as_operator

        spasm = encode(COOMatrix.from_dense(small_dense))
        op = as_operator(spasm)
        x = rng.random(32)
        assert np.array_equal(op.matvec(x), spasm.plan().spmv(x))
        assert np.allclose(op.diagonal(), np.diag(small_dense))
        plan_op = as_operator(spasm.plan())
        assert np.array_equal(plan_op.matvec(x), op.matvec(x))

    def test_fast_sim_jobs(self, rng, small_dense):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        spasm = encode(COOMatrix.from_dense(small_dense))
        x = rng.random(32)
        acc = SpasmAccelerator(SPASM_4_1)
        serial = acc.run(spasm, x, engine="fast", jobs=1)
        sharded = acc.run(spasm, x, engine="fast", jobs=4)
        assert np.array_equal(serial.y, sharded.y)
        assert serial.hbm_bytes == sharded.hbm_bytes

    def test_cli_run_command(self, capsys):
        from repro.cli import main

        assert main(["run", "tmt_sym", "--scale", "0.5",
                     "--repeat", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "engines agree" in out

    def test_empty_matrix(self):
        coo = COOMatrix(
            rows=np.zeros(0, dtype=np.int64),
            cols=np.zeros(0, dtype=np.int64),
            vals=np.zeros(0),
            shape=(16, 16),
        )
        spasm = encode(coo)
        plan = spasm.plan()
        assert plan.n_slots == 0
        assert np.array_equal(plan.spmv(np.ones(16)), np.zeros(16))
        assert np.array_equal(
            plan.spmm(np.ones((16, 2))), np.zeros((16, 2))
        )
