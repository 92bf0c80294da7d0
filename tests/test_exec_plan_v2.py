"""Tests for the v2 execution-plan features: plan builds, compact
dtype-aware layouts, batched multi-query SpMV, the shard
auto-heuristic and the guarded integrations.

The non-negotiable invariant throughout: every float64 engine —
naive, compiled (int32 or int64 indices), sharded, batched, guarded —
produces **bitwise identical** results.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.plan as plan_mod
from repro.core import (
    SpasmCompiler,
    cached_table,
    candidate_portfolios,
    encode_spasm,
)
from repro.exec import ExecutionPlan, backends, index_dtype_for
from repro.matrix.coo import COOMatrix
from tests.conftest import random_structured_coo


def integer_coo(rng, n=64, kind="mixed"):
    """Small-integer values: float64 sums are order-independent, so
    every comparison below can demand bitwise equality."""
    coo = random_structured_coo(rng, n, kind)
    vals = rng.integers(1, 8, size=coo.nnz).astype(np.float64)
    return COOMatrix(rows=coo.rows, cols=coo.cols, vals=vals,
                     shape=coo.shape)


def encode(coo, tile_size=32, portfolio_idx=0, **kwargs):
    portfolio = candidate_portfolios()[portfolio_idx]
    return encode_spasm(coo, portfolio, tile_size, **kwargs)


def assert_plans_identical(a, b):
    assert a.digest == b.digest
    assert a.checksum == b.checksum
    assert a.shape == b.shape
    for name in ("cols", "vals", "indptr"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


# -- plan builds ---------------------------------------------------------


class TestPlanBuild:
    def test_lazy_plan_is_cached_build(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        plan = spasm.plan()
        assert plan is spasm.__dict__.get("_plan")
        assert spasm.plan() is plan
        assert_plans_identical(plan, ExecutionPlan.build(spasm))
        assert plan.build_ms > 0.0

    def test_empty_matrix(self):
        coo = COOMatrix(
            rows=np.array([], dtype=np.int64),
            cols=np.array([], dtype=np.int64),
            vals=np.array([], dtype=np.float64),
            shape=(16, 16),
        )
        spasm = encode(coo, tile_size=16)
        plan = spasm.plan()
        assert plan.n_slots == 0
        assert np.array_equal(
            plan.spmv(np.ones(16)), np.zeros(16)
        )

    def test_mutation_after_plan_recompiles(self, rng):
        # Mutating the live stream after its plan is cached must
        # invalidate the stale plan: the next spmv rebuilds and
        # serves the mutated product.
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        stale = spasm.plan()
        spasm.values[spasm.values != 0.0] *= 2.0
        x = rng.integers(0, 5, size=96).astype(np.float64)
        expected = spasm.spmv_naive(x)
        assert np.array_equal(spasm.spmv(x), expected)
        assert spasm.__dict__.get("_plan") is not stale

    def test_compile_with_plan_hashes_stream_once(self, rng,
                                                   monkeypatch):
        """``build_plan=True`` builds one plan with one stream hash,
        caches it on the matrix, and the first spmv compiles nothing."""
        coo = integer_coo(rng, 64, "blocks")
        hashes = []
        real_digest = plan_mod.stream_digest

        def counting_digest(spasm):
            hashes.append(1)
            return real_digest(spasm)

        monkeypatch.setattr(plan_mod, "stream_digest", counting_digest)
        program = SpasmCompiler(build_plan=True).compile(coo)
        assert len(hashes) == 1
        assert program.plan is not None
        assert program.plan is program.spasm.__dict__.get("_plan")

        def no_compile(*args, **kwargs):
            raise AssertionError("first spmv recompiled the plan")

        monkeypatch.setattr(ExecutionPlan, "_compile", no_compile)
        x = rng.integers(0, 5, size=64).astype(np.float64)
        assert np.array_equal(
            program.spasm.spmv(x), program.spasm.spmv_naive(x)
        )

    def test_hazard_aware_compile_still_plans_correctly(self, rng):
        # The hazard-aware reorder rewrites the stream after encode;
        # the PlanPass compile must still agree with the naive engine
        # bitwise.
        coo = integer_coo(rng, 64, "mixed")
        program = SpasmCompiler(
            build_plan=True, hazard_aware=True
        ).compile(coo)
        x = rng.integers(0, 5, size=64).astype(np.float64)
        assert np.array_equal(
            program.plan.spmv(x), program.spasm.spmv_naive(x)
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([32, 48, 64]),
        kind=st.sampled_from(["mixed", "blocks", "scatter"]),
        portfolio_idx=st.integers(0, 2),
        tile_size=st.sampled_from([16, 32]),
    )
    def test_lazy_plan_matches_build(
        self, seed, n, kind, portfolio_idx, tile_size
    ):
        """Property: lazy plan ≡ standalone build, bitwise, for random
        matrices, portfolios and tile sizes."""
        rng = np.random.default_rng(seed)
        coo = integer_coo(rng, n, kind)
        spasm = encode(
            coo, tile_size=tile_size, portfolio_idx=portfolio_idx,
        )
        lazy = spasm.plan()
        assert_plans_identical(lazy, ExecutionPlan.build(spasm))


# -- compact dtype-aware layouts ---------------------------------------


class TestCompactLayouts:
    def test_index_dtype_policy(self):
        assert index_dtype_for((100, 100), 50) == np.int32
        big = 2**31
        assert index_dtype_for((big, 100), 50) == np.int64
        assert index_dtype_for((100, big), 50) == np.int64
        assert index_dtype_for((100, 100), big) == np.int64

    def test_default_layout_is_compact(self, rng):
        plan = encode(integer_coo(rng, 64)).plan()
        assert plan.cols.dtype == np.int32
        assert plan.indptr.dtype == np.int32
        assert plan.vals.dtype == np.float64

    def test_all_engines_bitwise_identical(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        x = rng.integers(0, 5, size=coo.shape[1]).astype(np.float64)
        reference = spasm.spmv_naive(x)
        plan = spasm.plan()
        plan_i64 = ExecutionPlan.build(spasm, index="int64")
        outputs = {
            "compiled_int32": plan.spmv(x),
            "int64": plan_i64.spmv(x),
            "sharded": plan.spmv(x, jobs=3),
            "auto": plan.spmv(x, jobs=None),
            "batch_row": plan.spmv_batch(x[None, :])[0],
        }
        from repro.resilience import ExecutionGuard

        outputs["guarded"] = ExecutionGuard(spasm).spmv(x)
        for engine, y in outputs.items():
            assert y.dtype == np.float64, engine
            assert np.array_equal(y, reference), engine

    def test_int64_opt_in(self, rng):
        spasm = encode(integer_coo(rng, 64))
        plan = ExecutionPlan.build(spasm, index="int64")
        assert plan.cols.dtype == np.int64
        assert plan.validate() == []
        # The checksum covers the dtypes: the two layouts differ.
        assert plan.checksum != spasm.plan().checksum

    def test_unknown_layouts_rejected(self, rng):
        spasm = encode(integer_coo(rng, 32))
        with pytest.raises(ValueError):
            ExecutionPlan.build(spasm, index="int16")

    def test_out_of_range_rows_build_safely(self):
        # A corrupted stream can expand to coordinates outside the
        # matrix (the fault campaign recompiles such streams through
        # the guard).  The build must never crash on them — the
        # counting-sort fast path scatters through the row pointer
        # unchecked, so bad rows must route to the tolerant sort path
        # — and validate() must report the violation: the bad slot
        # lies outside every row's range of the row pointer.
        cols = np.array([0, 1, 2], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        for bad, problem in (
            (40, "row pointer ends at 2, expected the 3-slot stream"),
            (-7, "row pointer starts at 1, expected 0"),
        ):
            rows = np.array([1, bad, 3], dtype=np.int64)
            plan = ExecutionPlan.from_slots(
                (16, 16), rows, cols, vals,
                digest="x" * 64, source_nnz=3,
            )
            [message] = plan.validate()
            assert message.startswith(problem)

    def test_csr_and_portable_kernels_bitwise(self, rng, monkeypatch):
        # The build's row sort is coo_tocsr's counting sort; declining
        # it exercises the portable stable argsort on the same stream.
        # Both builds must give the same plan, and the same answers.
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode(coo)
        x = rng.random(coo.shape[1])
        xs = rng.random((4, coo.shape[1]))
        csr_plan = ExecutionPlan.build(spasm)
        y_csr = csr_plan.spmv(x)
        ys_csr = csr_plan.spmv_batch(xs)
        monkeypatch.setattr(backends, "counting_sort_rows",
                            lambda *args: None)
        portable_plan = ExecutionPlan.build(spasm)
        assert np.array_equal(portable_plan.spmv(x), y_csr)
        assert np.array_equal(portable_plan.spmv_batch(xs), ys_csr)
        assert portable_plan.checksum == csr_plan.checksum
        for field in ("cols", "vals", "indptr"):
            a = getattr(csr_plan, field)
            b = getattr(portable_plan, field)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_validate_rejects_mixed_index_dtypes(self, rng):
        import dataclasses

        plan = encode(integer_coo(rng, 64)).plan()
        mutated = dataclasses.replace(
            plan, indptr=plan.indptr.astype(np.int64)
        )
        assert any(
            "index" in p or "dtype" in p for p in mutated.validate()
        )


class TestDtypeCache:
    def test_cache_layouts_coexist(self, rng):
        spasm = encode(integer_coo(rng, 64))
        default = spasm.plan()
        wide = ExecutionPlan.build(spasm, index="int64")
        # An explicit wide build leaves the matrix's cached compact
        # plan in place, and each layout keeps its dtypes.
        assert spasm.plan() is default
        assert default.cols.dtype == np.int32
        assert wide.cols.dtype == np.int64
        assert ExecutionPlan.build(spasm).cols.dtype == np.int32
        assert default.checksum != wide.checksum
        x = rng.standard_normal(spasm.shape[1])
        np.testing.assert_array_equal(default.spmv(x), wide.spmv(x))


# -- batched multi-query SpMV ------------------------------------------


class TestSpmvBatch:
    def test_batch_rows_equal_spmv(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        plan = spasm.plan()
        xs = rng.integers(
            0, 5, size=(9, coo.shape[1])
        ).astype(np.float64)
        ys = plan.spmv_batch(xs)
        assert ys.shape == (9, coo.shape[0])
        for i in range(9):
            assert np.array_equal(ys[i], plan.spmv(xs[i])), i

    def test_batch_blocking_invariant(self, rng):
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        xs = rng.integers(0, 5, size=(8, 64)).astype(np.float64)
        assert np.array_equal(
            plan.spmv_batch(xs, block_size=3),
            plan.spmv_batch(xs),
        )

    def test_batch_sharding_invariant(self, rng):
        spasm = encode(integer_coo(rng, 96))
        plan = spasm.plan()
        xs = rng.integers(0, 5, size=(5, 96)).astype(np.float64)
        assert np.array_equal(
            plan.spmv_batch(xs, jobs=4), plan.spmv_batch(xs, jobs=1)
        )

    def test_batch_empty_and_bad_shapes(self, rng):
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        empty = plan.spmv_batch(np.empty((0, 64)))
        assert empty.shape == (0, 64)
        with pytest.raises(ValueError):
            plan.spmv_batch(np.ones(64))
        with pytest.raises(ValueError):
            plan.spmv_batch(np.ones((3, 65)))

    def test_matrix_delegates_batch(self, rng):
        spasm = encode(integer_coo(rng, 64))
        xs = rng.integers(0, 5, size=(4, 64)).astype(np.float64)
        assert np.array_equal(
            spasm.spmv_batch(xs), spasm.plan().spmv_batch(xs)
        )


class TestPlanArgumentRouting:
    """``jobs=``/``block_size=``/``y=`` passed together through the
    plan entry points change nothing numerically."""

    @pytest.fixture
    def program(self, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        return SpasmCompiler(build_plan=True).compile(coo)

    def test_batch_and_spmm_routing(self, program, rng):
        spasm, plan = program.spasm, program.plan
        xs = np.ascontiguousarray(rng.random((5, spasm.shape[1])))
        assert np.array_equal(
            plan.spmv_batch(xs, jobs=1, block_size=8),
            spasm.spmv_batch(xs))
        dense = np.ascontiguousarray(rng.random((spasm.shape[1], 3)))
        assert np.array_equal(
            plan.spmm(dense, jobs=1, block_size=8),
            spasm.spmm(dense))

    def test_y_accumulation(self, program, rng):
        plan = program.plan
        x = rng.random(plan.shape[1])
        y = rng.random(plan.shape[0])
        got = plan.spmv(x, y=y.copy(), jobs=1)
        assert np.array_equal(got, program.spasm.spmv_naive(x, y))


# -- guarded and simulated batching ------------------------------------


class TestGuardedBatch:
    def test_guarded_batch_clean_path_bitwise(self, rng):
        from repro.resilience import ExecutionGuard

        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        guard = ExecutionGuard(spasm)
        xs = rng.integers(
            0, 5, size=(6, coo.shape[1])
        ).astype(np.float64)
        assert np.array_equal(
            guard.spmv_batch(xs), spasm.plan().spmv_batch(xs)
        )
        assert len(guard.log) == 0

    def test_guarded_batch_recovers_from_corrupt_plan(self, rng):
        from repro.resilience import ExecutionGuard
        from repro.resilience.faults import FaultInjector

        coo = integer_coo(rng, 64, "mixed")
        spasm = encode(coo)
        guard = ExecutionGuard(spasm)
        injector = FaultInjector(seed=3)
        injector.flip_plan_array(spasm.plan())
        xs = rng.integers(0, 5, size=(3, 64)).astype(np.float64)
        expected = np.stack([spasm.spmv_naive(q) for q in xs])
        assert np.array_equal(guard.spmv_batch(xs), expected)
        assert any(
            e.kind == "detect" for e in guard.log.events
        )

    def test_guarded_batch_bad_shape_is_caller_error(self, rng):
        from repro.resilience import ExecutionGuard

        guard = ExecutionGuard(encode(integer_coo(rng, 64)))
        with pytest.raises(ValueError):
            guard.spmv_batch(np.ones((2, 63)))

    def test_fast_sim_batch_bitwise(self, rng):
        from repro.hw import DEFAULT_CONFIGS, SpasmAccelerator

        coo = integer_coo(rng, 64, "blocks")
        spasm = encode(coo)
        acc = SpasmAccelerator(DEFAULT_CONFIGS[0])
        xs = rng.integers(0, 5, size=(4, 64)).astype(np.float64)
        result = acc.run_batch(spasm, xs)
        singles = np.stack([
            acc.run(spasm, q, engine="fast").y for q in xs
        ])
        assert np.array_equal(result.y, singles)
        assert result.cycles > 0
        assert result.hbm_bytes > 0


# -- shard auto-heuristic ----------------------------------------------


class TestAutoSharding:
    def test_small_plans_stay_serial(self, rng):
        plan = encode(integer_coo(rng, 64)).plan()
        assert plan._auto_jobs() == 1

    def test_heuristic_scales_with_slots(self, rng, monkeypatch):
        # Pin dispatch overhead to ~zero: this test isolates the nnz
        # rule, the overhead clamp has its own tests in TestAutoJobsClamp.
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1e-12)
        monkeypatch.setattr(plan_mod, "AUTO_SHARD_SLOTS", 64)
        monkeypatch.setattr(plan_mod.os, "cpu_count", lambda: 8)
        plan = encode(integer_coo(rng, 96)).plan()
        assert plan._auto_jobs() == min(plan.n_slots // 64, 8)

    def test_heuristic_caps_at_cpu_count(self, rng, monkeypatch):
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1e-12)
        monkeypatch.setattr(plan_mod, "AUTO_SHARD_SLOTS", 64)
        monkeypatch.setattr(plan_mod.os, "cpu_count", lambda: 2)
        plan = encode(integer_coo(rng, 96)).plan()
        assert plan._auto_jobs() == 2

    def test_auto_matches_serial_bitwise(self, rng, monkeypatch):
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1e-12)
        monkeypatch.setattr(plan_mod, "AUTO_SHARD_SLOTS", 64)
        monkeypatch.setattr(plan_mod, "MIN_SHARD_SLOTS", 16)
        monkeypatch.setattr(plan_mod.os, "cpu_count", lambda: 4)
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        plan = spasm.plan()
        assert plan._auto_jobs() > 1
        x = rng.integers(0, 5, size=96).astype(np.float64)
        assert np.array_equal(plan.spmv(x), plan.spmv(x, jobs=1))


class TestAutoJobsClamp:
    """The runtime pin and the dispatch-overhead clamp on auto-sharding."""

    @pytest.fixture
    def plan(self, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        return SpasmCompiler(build_plan=True).compile(coo).plan

    def test_override_pins_and_clears(self, plan):
        plan.override_auto_jobs(3)
        assert plan._auto_jobs() == max(
            1, min(3, os.cpu_count() or 1)
        )
        plan.override_auto_jobs(None)
        assert "pinned_jobs" not in plan._scratch
        with pytest.raises(ValueError):
            plan.override_auto_jobs(0)

    def test_overhead_clamps_shard_count(self, plan, monkeypatch):
        monkeypatch.setattr(plan_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(plan_mod, "AUTO_SHARD_SLOTS",
                            max(1, plan.n_slots // 16))
        # Negligible dispatch overhead: the nnz heuristic stands.
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1e-12)
        assert plan._auto_jobs() > 1
        # Pathological dispatch overhead: sharding can never pay for
        # itself, so the clamp walks the count back to serial.
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1.0)
        assert plan._auto_jobs() == 1

    def test_dispatch_overhead_measured_and_cached(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", None)
        first = plan_mod.dispatch_overhead_s()
        assert first > 0.0
        assert plan_mod.dispatch_overhead_s() == first  # cached
        assert plan_mod.dispatch_overhead_s(refresh=True) > 0.0


# -- decomposition table cache -----------------------------------------


class TestCachedTable:
    def test_same_portfolio_reuses_table(self):
        portfolio = candidate_portfolios()[0]
        assert cached_table(portfolio) is cached_table(portfolio)

    def test_distinct_portfolios_distinct_tables(self):
        a, b = candidate_portfolios()[:2]
        assert cached_table(a) is not cached_table(b)

    def test_cached_table_matches_fresh(self):
        from repro.core import DecompositionTable

        portfolio = candidate_portfolios()[1]
        fresh = DecompositionTable(portfolio)
        cached = cached_table(portfolio)
        assert fresh.masks == cached.masks
        patterns = np.arange(1, 64, dtype=np.int64)
        assert np.array_equal(
            fresh.padding_array(patterns),
            cached.padding_array(patterns),
        )
