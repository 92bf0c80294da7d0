"""Tests for the end-to-end SpasmCompiler (Figure 6 workflow)."""

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios
from repro.hw import SPASM_3_4, SPASM_4_1, SpasmAccelerator
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def compiler():
    return SpasmCompiler(tile_sizes=(16, 32, 64, 128))


class TestCompile:
    def test_end_to_end(self, rng, compiler):
        coo = random_structured_coo(rng, 128, "mixed")
        program = compiler.compile(coo)
        assert program.spasm.source_nnz == coo.nnz
        assert program.tile_size in (16, 32, 64, 128)
        assert program.hw_config.name.startswith("SPASM_")
        assert program.selection is not None
        assert program.schedule is not None

    def test_compiled_program_executes_correctly(self, rng, compiler):
        coo = random_structured_coo(rng, 128, "mixed")
        program = compiler.compile(coo)
        x = rng.random(128)
        result = SpasmAccelerator(program.hw_config).run(program.spasm, x)
        assert np.allclose(result.y, coo.spmv(x))

    def test_selection_picks_matching_portfolio(self, compiler):
        coo = g.anti_diagonal_stripes(128, (0, 31, -45), fill=1.0, seed=0)
        program = compiler.compile(coo)
        kinds = {t.kind for t in program.portfolio}
        assert "ADIAG" in kinds

    def test_rejects_non_coo(self, compiler):
        with pytest.raises(TypeError):
            compiler.compile(np.eye(8))


class TestAblationKnobs:
    def test_fixed_portfolio_skips_selection(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        fixed = candidate_portfolios()[0]
        program = compiler.compile(coo, fixed_portfolio=fixed)
        assert program.selection is None
        assert program.portfolio is fixed

    def test_fixed_tile_and_config_skip_schedule(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(
            coo, fixed_tile_size=32, fixed_hw_config=SPASM_4_1
        )
        assert program.schedule is None
        assert program.tile_size == 32
        assert program.hw_config is SPASM_4_1

    def test_fixed_config_only_still_explores_tiles(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(coo, fixed_hw_config=SPASM_3_4)
        assert program.schedule is not None
        assert program.hw_config is SPASM_3_4

    def test_fixed_tile_only_still_explores_configs(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(coo, fixed_tile_size=64)
        assert program.schedule is not None
        assert program.tile_size == 64

    def test_optimized_not_slower_than_fixed_baseline(self, rng,
                                                      compiler):
        coo = random_structured_coo(rng, 256, "mixed")
        fixed = compiler.compile(
            coo,
            fixed_portfolio=candidate_portfolios()[0],
            fixed_tile_size=128,
            fixed_hw_config=SPASM_4_1,
        )
        full = compiler.compile(coo)
        assert (
            full.estimate().total_cycles / full.hw_config.frequency_hz
            <= fixed.estimate().total_cycles
            / fixed.hw_config.frequency_hz * 1.0001
        )


class TestReport:
    def test_stage_times_recorded(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        trace = compiler.compile(coo).trace
        stages = ("analysis", "selection", "decomposition", "schedule",
                  "encode")
        assert all(trace.stage_ms(stage) >= 0 for stage in stages)
        assert trace.total_ms == pytest.approx(
            sum(trace.stage_ms(stage) for stage in stages)
        )

    def test_row_rendering(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        lines = compiler.compile(coo).trace.render().splitlines()
        assert lines[1].startswith("analysis")
        assert lines[-1].startswith("total")

    def test_estimated_gflops_positive(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        assert compiler.compile(coo).estimated_gflops() > 0


class TestPortfolioStrategies:
    @pytest.mark.parametrize("strategy", ["candidates", "greedy",
                                          "combined"])
    def test_all_strategies_compile_and_compute(self, rng, strategy):
        compiler = SpasmCompiler(
            tile_sizes=(32, 64), portfolio_strategy=strategy
        )
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(coo)
        x = rng.random(64)
        assert np.allclose(program.spasm.spmv(x), coo.spmv(x))

    def test_combined_never_more_padding_than_candidates(self, rng):
        coo = random_structured_coo(rng, 128, "mixed")
        plain = SpasmCompiler(tile_sizes=(64,)).compile(coo)
        combined = SpasmCompiler(
            tile_sizes=(64,), portfolio_strategy="combined"
        ).compile(coo)
        assert combined.spasm.padding <= plain.spasm.padding

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SpasmCompiler(portfolio_strategy="magic")

    def test_hazard_aware_output(self, rng):
        from repro.hw.hazards import count_stall_cycles

        coo = random_structured_coo(rng, 128, "blocks")
        stock = SpasmCompiler(tile_sizes=(128,)).compile(coo)
        tuned = SpasmCompiler(
            tile_sizes=(128,), hazard_aware=True
        ).compile(coo)
        assert count_stall_cycles(tuned.spasm, 8) <= (
            count_stall_cycles(stock.spasm, 8)
        )
        x = rng.random(128)
        assert np.allclose(tuned.spasm.spmv(x), coo.spmv(x))


class TestCustomPerfModel:
    def test_injected_model_drives_choice(self, rng):
        calls = []

        def fake_model(gc, hw, tile_size):
            calls.append(tile_size)
            return float(tile_size)  # smaller tile always wins

        compiler = SpasmCompiler(
            tile_sizes=(16, 64), perf_model=fake_model
        )
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(coo)
        assert program.tile_size == 16
        assert set(calls) == {16, 64}
