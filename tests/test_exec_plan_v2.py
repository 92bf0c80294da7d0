"""Tests for the v2 execution-plan features: fused encode-time
builds, compact dtype-aware layouts, batched multi-query SpMV, the
shard auto-heuristic and the guarded/cached integrations.

The non-negotiable invariant throughout: every float64 engine —
naive, compiled (int32 or int64 indices), fused, sharded, batched,
guarded — produces **bitwise identical** results.
"""

import os
import tempfile

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
from repro.exec import (
    ExecutionPlan,
    csr_kernels_available,
    index_dtype_for,
)
from repro.matrix.coo import COOMatrix
from repro.pipeline.cache import ArtifactCache
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
    for name in ("cols", "vals", "seg_starts", "seg_rows"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


# -- fused encode-time builds ------------------------------------------


class TestFusedBuild:
    def test_fused_equals_compile(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo, build_plan=True)
        fused = spasm.plan()
        assert fused is spasm.__dict__.get("_plan")
        assert_plans_identical(fused, ExecutionPlan.build(spasm))
        assert fused.build_ms > 0.0

    def test_fused_empty_matrix(self):
        coo = COOMatrix(
            rows=np.array([], dtype=np.int64),
            cols=np.array([], dtype=np.int64),
            vals=np.array([], dtype=np.float64),
            shape=(16, 16),
        )
        spasm = encode(coo, tile_size=16, build_plan=True)
        plan = spasm.plan()
        assert plan.n_slots == 0
        assert np.array_equal(
            plan.spmv(np.ones(16)), np.zeros(16)
        )

    def test_mutation_after_fused_encode_recompiles(self, rng):
        # The fused plan's digest is hashed off the critical path over
        # a build-time snapshot.  Mutating the live stream *before*
        # that hash ever resolves must still invalidate the stale plan
        # — a digest of the mutated arrays would match the fresh hash
        # in plan() and silently serve the pre-mutation answer.
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo, build_plan=True)
        stale = spasm.__dict__.get("_plan")
        assert stale is not None
        spasm.values[spasm.values != 0.0] *= 2.0
        x = rng.integers(0, 5, size=96).astype(np.float64)
        expected = spasm.spmv_naive(x)
        assert np.array_equal(spasm.spmv(x), expected)
        assert spasm.__dict__.get("_plan") is not stale

    def test_compiler_fuses_when_building_plans(self, rng):
        coo = integer_coo(rng, 64, "blocks")
        program = SpasmCompiler(build_plan=True).compile(coo)
        assert program.plan is not None
        assert_plans_identical(
            program.plan, ExecutionPlan.build(program.spasm)
        )
        encode_note = next(
            e.note for e in program.trace if e.name == "encode"
        )
        assert "fused plan" in encode_note

    def test_hazard_aware_compile_still_plans_correctly(self, rng):
        # Fusion is skipped under hazard-aware reorder (the stream is
        # rewritten after encode); the PlanPass compile must still
        # agree with the naive engine bitwise.
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
    def test_fused_compile_cache_identical(
        self, seed, n, kind, portfolio_idx, tile_size
    ):
        """Property: fused build ≡ stream re-expansion compile ≡
        cache roundtrip, bitwise, for random matrices, portfolios and
        tile sizes."""
        rng = np.random.default_rng(seed)
        coo = integer_coo(rng, n, kind)
        spasm = encode(
            coo, tile_size=tile_size, portfolio_idx=portfolio_idx,
            build_plan=True,
        )
        fused = spasm.plan()
        compiled = ExecutionPlan.build(spasm)
        assert_plans_identical(fused, compiled)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ArtifactCache(tmp)
            stored = ExecutionPlan.build(spasm, cache=cache)
            loaded = ExecutionPlan.build(spasm, cache=cache)
            assert_plans_identical(stored, loaded)
            assert_plans_identical(fused, loaded)


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
        assert plan.seg_starts.dtype == np.int32
        assert plan.seg_rows.dtype == np.int32
        assert plan.vals.dtype == np.float64

    def test_all_engines_bitwise_identical(self, rng):
        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo, build_plan=True)
        x = rng.integers(0, 5, size=coo.shape[1]).astype(np.float64)
        reference = spasm.spmv_naive(x)
        fused = spasm.plan()
        plan_i64 = ExecutionPlan.build(spasm, index="int64")
        outputs = {
            "fused_int32": fused.spmv(x),
            "compiled_int32": ExecutionPlan.build(spasm).spmv(x),
            "int64": plan_i64.spmv(x),
            "sharded": fused.spmv(x, jobs=3),
            "auto": fused.spmv(x, jobs=None),
            "batch_row": fused.spmv_batch(x[None, :])[0],
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

    def test_float32_opt_in(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode(coo)
        plan = ExecutionPlan.build(spasm, precision="float32")
        assert plan.vals.dtype == np.float32
        assert plan.validate() == []
        x = rng.random(64)
        assert np.allclose(
            plan.spmv(x), spasm.spmv_naive(x),
            rtol=1e-5, atol=1e-8,
        )

    def test_unknown_layouts_rejected(self, rng):
        spasm = encode(integer_coo(rng, 32))
        with pytest.raises(ValueError):
            ExecutionPlan.build(spasm, index="int16")
        with pytest.raises(ValueError):
            ExecutionPlan.build(spasm, precision="float16")

    def test_out_of_range_rows_build_safely(self):
        # A corrupted stream can expand to coordinates outside the
        # matrix (the fault campaign recompiles such streams through
        # the guard).  The build must never crash on them — the
        # counting-sort fast path scatters through the row pointer
        # unchecked, so bad rows must route to the tolerant sort path
        # — and validate() must report the violation.
        cols = np.array([0, 1, 2], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        for bad in (40, -7):
            rows = np.array([1, bad, 3], dtype=np.int64)
            plan = ExecutionPlan.from_slots(
                (16, 16), rows, cols, vals,
                digest="x" * 64, source_nnz=3,
            )
            assert plan.validate() == [
                "segment rows outside [0, 16)"
            ]

    @pytest.mark.skipif(
        not csr_kernels_available(),
        reason="scipy CSR kernels not present",
    )
    def test_csr_and_portable_kernels_bitwise(self, rng):
        # int32/float64 auto-negotiates to the scipy CSR backend;
        # forcing the kernels away exercises the portable gather
        # backend on the same plan.  Both must agree bitwise.
        from repro.exec.backends import csr as csr_mod

        coo = integer_coo(rng, 96, "mixed")
        spasm = encode(coo)
        x = rng.integers(0, 5, size=coo.shape[1]).astype(np.float64)
        xs = rng.integers(
            0, 5, size=(4, coo.shape[1])
        ).astype(np.float64)
        csr_plan = ExecutionPlan.build(spasm)
        y_csr = csr_plan.spmv(x)
        ys_csr = csr_plan.spmv_batch(xs)
        saved = csr_mod._csr_kernels
        csr_mod._csr_kernels = None
        try:
            portable_plan = ExecutionPlan.build(spasm)
            assert np.array_equal(portable_plan.spmv(x), y_csr)
            assert np.array_equal(
                portable_plan.spmv_batch(xs), ys_csr
            )
        finally:
            csr_mod._csr_kernels = saved
        # The build paths themselves must also agree bitwise: with
        # scipy the row sort is coo_tocsr's counting sort, without it
        # the portable stable argsort — same plan either way.
        assert portable_plan.checksum == csr_plan.checksum
        for field in ("cols", "vals", "seg_starts", "seg_rows"):
            a = getattr(csr_plan, field)
            b = getattr(portable_plan, field)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_validate_rejects_mixed_index_dtypes(self, rng):
        import dataclasses

        plan = encode(integer_coo(rng, 64)).plan()
        mutated = dataclasses.replace(
            plan, seg_rows=plan.seg_rows.astype(np.int64)
        )
        assert any(
            "index" in p or "dtype" in p for p in mutated.validate()
        )


# -- dtype-preserving cache --------------------------------------------


class TestDtypeCache:
    def test_cache_preserves_compact_dtypes(self, rng, tmp_path):
        spasm = encode(integer_coo(rng, 64))
        cache = ArtifactCache(str(tmp_path))
        stored = ExecutionPlan.build(spasm, cache=cache)
        assert stored.cols.dtype == np.int32
        loaded = ExecutionPlan.build(spasm, cache=cache)
        assert_plans_identical(stored, loaded)
        # A clean roundtrip must not quarantine anything.
        assert cache.entries()

    def test_cache_layouts_coexist(self, rng, tmp_path):
        spasm = encode(integer_coo(rng, 64))
        cache = ArtifactCache(str(tmp_path))
        default = ExecutionPlan.build(spasm, cache=cache)
        wide = ExecutionPlan.build(spasm, cache=cache, index="int64")
        f32 = ExecutionPlan.build(
            spasm, cache=cache, precision="float32"
        )
        # Reloading each layout hits its own entry, dtypes intact.
        assert ExecutionPlan.build(
            spasm, cache=cache
        ).cols.dtype == np.int32
        assert ExecutionPlan.build(
            spasm, cache=cache, index="int64"
        ).cols.dtype == np.int64
        assert ExecutionPlan.build(
            spasm, cache=cache, precision="float32"
        ).vals.dtype == np.float32
        assert default.checksum != wide.checksum
        assert default.checksum != f32.checksum

    def test_pipeline_cache_roundtrip_keeps_dtypes(self, rng, tmp_path):
        coo = integer_coo(rng, 64, "blocks")
        compiler = SpasmCompiler(
            build_plan=True, cache_dir=str(tmp_path)
        )
        first = compiler.compile(coo)
        second = compiler.compile(coo)
        stages = {
            e.name: e.cache for e in second.trace if e.cache
        }
        assert stages.get("plan") == "hit"
        assert_plans_identical(first.plan, second.plan)
        assert second.plan.cols.dtype == np.int32


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
    """``jobs=``/``block_size=``/``backend=``/``y=`` passed together
    through the plan entry points change nothing numerically."""

    BACKEND = "csr" if csr_kernels_available() else "gather"

    @pytest.fixture
    def program(self, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        return SpasmCompiler(build_plan=True).compile(coo)

    def test_batch_and_spmm_routing(self, program, rng):
        spasm, plan = program.spasm, program.plan
        xs = np.ascontiguousarray(rng.random((5, spasm.shape[1])))
        assert np.array_equal(
            plan.spmv_batch(xs, jobs=1, block_size=8,
                            backend=self.BACKEND),
            spasm.spmv_batch(xs))
        dense = np.ascontiguousarray(rng.random((spasm.shape[1], 3)))
        assert np.array_equal(
            plan.spmm(dense, jobs=1, block_size=8,
                      backend=self.BACKEND),
            spasm.spmm(dense))

    def test_y_accumulation(self, program, rng):
        plan = program.plan
        x = rng.random(plan.shape[1])
        y = rng.random(plan.shape[0])
        got = plan.spmv(x, y=y.copy(), jobs=1, backend=self.BACKEND)
        assert np.array_equal(got, plan.spmv(x) + y)


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
