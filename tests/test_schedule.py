"""Tests for workload schedule exploration (paper Algorithm 4)."""

import pytest

from repro.core import DecompositionTable, candidate_portfolios
from repro.core.format import groups_per_submatrix
from repro.core.schedule import explore_schedule
from repro.core.patterns import submatrix_masks
from repro.core.tiling import TilingError, global_compositions
from repro.hw.configs import DEFAULT_CONFIGS, SPASM_3_4, SPASM_4_1
from repro.hw.perf_model import perf_model
from repro.synth import generators as g
from tests.conftest import random_structured_coo


def factory_for(coo, table):
    counts, keys = groups_per_submatrix(coo, table)
    nnz = submatrix_masks(coo)[2]

    def factory(tile_size):
        return global_compositions(
            coo.shape, counts, keys, nnz, (tile_size,)
        )[tile_size]

    return factory


@pytest.fixture(scope="module")
def table():
    return DecompositionTable(candidate_portfolios()[0])


class TestExploreSchedule:
    def test_best_is_minimum(self, rng, table):
        coo = random_structured_coo(rng, 256, "mixed")
        result = explore_schedule(
            factory_for(coo, table), DEFAULT_CONFIGS, perf_model,
            tile_sizes=(64, 128, 256),
        )
        assert result.best.cycles == min(p.cycles for p in result.points)

    def test_sweeps_all_points(self, rng, table):
        coo = random_structured_coo(rng, 256, "mixed")
        result = explore_schedule(
            factory_for(coo, table), DEFAULT_CONFIGS, perf_model,
            tile_sizes=(64, 128),
        )
        assert len(result.points) == 2 * len(DEFAULT_CONFIGS)

    def test_accessors(self, rng, table):
        coo = random_structured_coo(rng, 256, "mixed")
        result = explore_schedule(
            factory_for(coo, table), [SPASM_4_1], perf_model,
            tile_sizes=(64,),
        )
        assert result.best_tile_size == 64
        assert result.best_hw_config is SPASM_4_1
        assert result.best_cycles > 0
        assert "SPASM_4_1" in result.best.label

    def test_improvement_over_baseline(self, rng, table):
        coo = random_structured_coo(rng, 256, "mixed")
        result = explore_schedule(
            factory_for(coo, table), DEFAULT_CONFIGS, perf_model,
            tile_sizes=(64, 128, 256),
        )
        imp = result.improvement_over(64, DEFAULT_CONFIGS[0])
        assert imp >= 1.0

    def test_improvement_over_unknown_point(self, rng, table):
        coo = random_structured_coo(rng, 256, "mixed")
        result = explore_schedule(
            factory_for(coo, table), [SPASM_4_1], perf_model,
            tile_sizes=(64,),
        )
        with pytest.raises(KeyError):
            result.improvement_over(999, SPASM_4_1)

    def test_skips_invalid_tile_sizes(self, rng, table):
        coo = random_structured_coo(rng, 128, "mixed")

        def factory(tile_size):
            if tile_size > 64:
                raise TilingError("too big for test")
            return factory_for(coo, table)(tile_size)

        result = explore_schedule(
            factory, [SPASM_4_1], perf_model, tile_sizes=(32, 64, 128)
        )
        sizes = {p.tile_size for p in result.points}
        assert sizes == {32, 64}

    def test_all_invalid_raises(self, rng, table):
        def factory(tile_size):
            raise TilingError("nothing fits")

        with pytest.raises(ValueError):
            explore_schedule(
                factory, [SPASM_4_1], perf_model, tile_sizes=(32,)
            )

    def test_empty_configs_raises(self, rng, table):
        coo = random_structured_coo(rng, 64, "mixed")
        with pytest.raises(ValueError):
            explore_schedule(
                factory_for(coo, table), [], perf_model, tile_sizes=(32,)
            )

    def test_custom_perf_model_injected(self, rng, table):
        # A model preferring the largest tile must steer the choice.
        coo = random_structured_coo(rng, 256, "mixed")

        def prefer_large(gc, hw, tile_size):
            return 1e9 / tile_size

        result = explore_schedule(
            factory_for(coo, table), [SPASM_4_1], prefer_large,
            tile_sizes=(64, 128, 256),
        )
        assert result.best_tile_size == 256


class TestScheduleShape:
    def test_imbalanced_prefers_smaller_tiles(self, table):
        # A matrix whose rows concentrate into one stripe: big tiles put
        # everything on few PEs.
        coo = g.dense_rows(512, 6, row_fill=0.9, seed=0)
        result = explore_schedule(
            factory_for(coo, table), [SPASM_4_1], perf_model,
            tile_sizes=(16, 512),
        )
        assert result.best_tile_size == 16
