"""Cross-module integration tests: the full pipeline on real workloads.

These tie the layers together: synthetic suite -> compiler -> format ->
functional hardware simulation -> analytic model -> analysis metrics,
asserting the invariants that hold across module boundaries.
"""

import numpy as np
import pytest

from repro import SpasmAccelerator, SpasmCompiler
from repro.analysis.storage_compare import spasm_storage_bytes
from repro.baselines import (
    HiSparseModel,
    SERPENS_A24,
    SpasmModel,
)
from repro.core import analyze_local_patterns, encode_spasm
from repro.hw.perf_model import perf_model
from repro.synth import load_suite, load_workload

#: A structurally diverse subset of the Table II suite, kept small so
#: the functional simulator (pure Python PE loops) stays fast.
SUBSET = ("raefsky3", "c-73", "t2em", "stormG2_1000", "mip1")
SCALE = 0.15


@pytest.fixture(scope="module")
def compiled():
    compiler = SpasmCompiler(tile_sizes=(64, 128, 256, 512))
    out = {}
    for spec, coo in load_suite(scale=SCALE, names=SUBSET):
        out[spec.name] = (coo, compiler.compile(coo))
    return out


class TestEndToEnd:
    @pytest.mark.parametrize("name", SUBSET)
    def test_functional_sim_exact(self, compiled, name):
        coo, program = compiled[name]
        rng = np.random.default_rng(11)
        x = rng.random(coo.shape[1])
        y0 = rng.random(coo.shape[0])
        result = SpasmAccelerator(program.hw_config).run(
            program.spasm, x, y0
        )
        assert np.allclose(result.y, coo.spmv(x, y0)), name

    @pytest.mark.parametrize("name", SUBSET)
    def test_format_spmv_matches_cpu_reference(self, compiled, name):
        coo, program = compiled[name]
        rng = np.random.default_rng(13)
        x = rng.random(coo.shape[1])
        assert np.allclose(program.spasm.spmv(x), coo.spmv(x))

    @pytest.mark.parametrize("name", SUBSET)
    def test_decode_roundtrip(self, compiled, name):
        coo, program = compiled[name]
        assert program.spasm.to_coo().to_dense() == pytest.approx(
            coo.to_dense()
        )

    @pytest.mark.parametrize("name", SUBSET)
    def test_sim_cycles_match_perf_model(self, compiled, name):
        coo, program = compiled[name]
        x = np.ones(coo.shape[1])
        result = SpasmAccelerator(program.hw_config).run(program.spasm, x)
        expected = perf_model(
            program.spasm.global_composition(),
            program.hw_config,
            program.tile_size,
        )
        assert result.cycles == pytest.approx(expected)

    @pytest.mark.parametrize("name", SUBSET)
    def test_schedule_best_equals_encoding(self, compiled, name):
        # The cycles the scheduler reported for the winning point must
        # match re-evaluating the final encoded matrix.
        __, program = compiled[name]
        if program.schedule is None:
            pytest.skip("fixed schedule")
        recomputed = perf_model(
            program.spasm.global_composition(),
            program.hw_config,
            program.tile_size,
        )
        assert recomputed == pytest.approx(program.schedule.best_cycles)


class TestStorageConsistency:
    @pytest.mark.parametrize("name", SUBSET)
    def test_estimate_matches_encoding(self, compiled, name):
        # The histogram-based storage estimate used for Figures 9-11
        # must equal the byte count of an actual encoding with the same
        # portfolio.
        coo, program = compiled[name]
        hist = analyze_local_patterns(coo)
        from repro.core.selection import storage_bytes_estimate

        estimate = storage_bytes_estimate(hist, program.portfolio)
        assert estimate == program.spasm.storage_bytes()

    def test_dynamic_storage_never_worse_than_selected(self):
        coo = load_workload("c-73", scale=SCALE)
        dynamic = spasm_storage_bytes(coo)
        from repro.core import candidate_portfolios
        from repro.core.selection import storage_bytes_estimate

        hist = analyze_local_patterns(coo)
        for portfolio in candidate_portfolios():
            assert dynamic <= storage_bytes_estimate(hist, portfolio)


class TestModelCrossChecks:
    def test_spasm_model_consistent_with_compiler(self):
        coo = load_workload("t2em", scale=SCALE)
        model = SpasmModel()
        program = model.program(coo)
        direct = SpasmCompiler().compile(coo)
        assert program.tile_size == direct.tile_size
        assert program.hw_config.name == direct.hw_config.name
        assert program.portfolio.name == direct.portfolio.name

    def test_baselines_slower_than_spasm_on_structured(self):
        # Full scale: at tiny scales SPASM's fixed per-run overheads
        # (pipeline fill, tile switching) dominate and the comparison
        # is meaningless.
        coo = load_workload("raefsky3", scale=1.0)
        spasm = SpasmModel().gflops(coo)
        assert spasm > HiSparseModel().gflops(coo)

    def test_throughput_metric_definition(self):
        # (2*nnz + nrows) / time, per Section V-E1.
        coo = load_workload("t2em", scale=SCALE)
        model = SERPENS_A24()
        t = model.time_s(coo)
        assert model.gflops(coo) == pytest.approx(
            (2 * coo.nnz + coo.shape[0]) / t / 1e9
        )


class TestWholeSuiteSmoke:
    def test_compile_whole_suite_small(self):
        # Every suite matrix must survive the full pipeline at tiny
        # scale (guards generator/compiler edge cases: empty tiles,
        # rectangular shapes, extreme sparsity).
        compiler = SpasmCompiler(tile_sizes=(64, 256))
        for spec, coo in load_suite(scale=0.05):
            program = compiler.compile(coo)
            assert program.spasm.source_nnz == coo.nnz, spec.name
            x = np.ones(coo.shape[1])
            assert np.allclose(
                program.spasm.spmv(x), coo.spmv(x)
            ), spec.name
