"""Tests for the baseline platform models."""

import pytest

from repro.baselines import (
    CuSparseRTX3090Model,
    HiSparseModel,
    SERPENS_A16,
    SERPENS_A24,
    SpasmModel,
    matrix_stats,
)
from repro.matrix import COOMatrix
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def banded_coo():
    return g.banded(512, 3, fill=0.9, seed=0)


@pytest.fixture(scope="module")
def imbalanced_coo():
    return g.overlay(
        g.banded(512, 2, fill=0.8, seed=1),
        g.dense_rows(512, 4, row_fill=0.9, seed=2),
    )


ALL_MODELS = [
    HiSparseModel(),
    SERPENS_A16(),
    SERPENS_A24(),
    CuSparseRTX3090Model(),
]


class TestMatrixStats:
    def test_basic_fields(self, banded_coo):
        stats = matrix_stats(banded_coo)
        assert stats.nnz == banded_coo.nnz
        assert stats.nrows == 512
        assert 0 < stats.density < 1
        assert stats.avg_row_len > 1

    def test_row_cv_detects_imbalance(self, banded_coo, imbalanced_coo):
        assert (
            matrix_stats(imbalanced_coo).row_cv
            > matrix_stats(banded_coo).row_cv
        )

    def test_col_span_detects_scatter(self, banded_coo):
        scattered = g.random_uniform(512, 0.01, seed=3)
        assert (
            matrix_stats(scattered).col_span
            > matrix_stats(banded_coo).col_span
        )

    def test_empty_matrix(self):
        stats = matrix_stats(COOMatrix([], [], [], (4, 4)))
        assert stats.nnz == 0
        assert stats.row_cv == 0.0


class TestModelSanity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_time_positive(self, model, banded_coo):
        assert model.time_s(banded_coo) > 0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_gflops_below_peak(self, model, banded_coo):
        assert 0 < model.gflops(banded_coo) <= model.peak_gflops

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_efficiency_bounded(self, model, banded_coo):
        assert 0 < model.efficiency(banded_coo) <= 1.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_utilizations_bounded(self, model, banded_coo):
        assert 0 < model.bandwidth_utilization(banded_coo) <= 1.0
        assert 0 < model.compute_utilization(banded_coo) <= 1.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_imbalance_slows_things_down(self, model, banded_coo,
                                         imbalanced_coo):
        assert model.efficiency(imbalanced_coo) < model.efficiency(
            banded_coo
        )

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_describe(self, model):
        assert model.name in model.describe()

    def test_launch_overhead_adds_time(self, banded_coo):
        fast = HiSparseModel()
        slow = HiSparseModel(launch_overhead_s=1.0)
        assert slow.time_s(banded_coo) > fast.time_s(banded_coo) + 0.5


class TestPlatformOrdering:
    """Directional expectations from Table III / Figure 12."""

    def test_serpens_a24_faster_than_a16(self, banded_coo):
        assert SERPENS_A24().gflops(banded_coo) > SERPENS_A16().gflops(
            banded_coo
        )

    def test_serpens_faster_than_hisparse(self, banded_coo):
        assert SERPENS_A16().gflops(banded_coo) > HiSparseModel().gflops(
            banded_coo
        )

    def test_gpu_fastest_baseline(self, banded_coo):
        gpu = CuSparseRTX3090Model().gflops(banded_coo)
        for model in (HiSparseModel(), SERPENS_A16(), SERPENS_A24()):
            assert gpu > model.gflops(banded_coo)


class TestSpasmModel:
    def test_compile_cached(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        model = SpasmModel()
        assert model.compile(coo) is model.compile(coo)

    def test_gflops_positive(self, rng):
        coo = random_structured_coo(rng, 128, "mixed")
        model = SpasmModel()
        assert model.gflops(coo) > 0

    def test_per_matrix_platform_constants(self, rng):
        coo = random_structured_coo(rng, 128, "mixed")
        model = SpasmModel()
        assert model.bandwidth_of(coo) > 0
        assert model.peak_gflops_of(coo) > 0
        assert 0 < model.compute_utilization(coo) <= 1.0

    def test_fixed_knobs_forwarded(self, rng):
        from repro.core import candidate_portfolios
        from repro.hw import SPASM_4_1

        coo = random_structured_coo(rng, 64, "mixed")
        model = SpasmModel(
            fixed_portfolio=candidate_portfolios()[0],
            fixed_tile_size=32,
            fixed_hw_config=SPASM_4_1,
        )
        program = model.compile(coo)
        assert program.tile_size == 32
        assert program.hw_config is SPASM_4_1
