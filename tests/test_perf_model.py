"""Tests for the analytic performance model."""

import numpy as np
import pytest

from repro.core import DecompositionTable, candidate_portfolios
from repro.core.format import encode_spasm, groups_per_submatrix
from repro.core.patterns import submatrix_masks
from repro.core.tiling import global_compositions
from repro.hw.configs import SPASM_3_2, SPASM_3_4, SPASM_4_1, HwConfig
from repro.hw.perf_model import (
    PIPELINE_FILL_CYCLES,
    assign_tiles,
    perf_breakdown,
    perf_model,
)
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def table():
    return DecompositionTable(candidate_portfolios()[0])


def gc_of(coo, table, tile_size):
    counts, keys = groups_per_submatrix(coo, table)
    nnz = submatrix_masks(coo)[2]
    return global_compositions(
        coo.shape, counts, keys, nnz, (tile_size,)
    )[tile_size]


class TestAssignTiles:
    def test_deterministic(self):
        loads = np.array([5, 1, 7, 2, 2, 9])
        a = assign_tiles(loads, 3)
        b = assign_tiles(loads, 3)
        assert np.array_equal(a, b)

    def test_all_tiles_assigned(self):
        owner = assign_tiles(np.array([1, 2, 3, 4, 5]), 2)
        assert owner.size == 5
        assert set(owner.tolist()) <= {0, 1}

    def test_greedy_balances(self):
        # One heavy tile followed by many light ones: the heavy PE must
        # not also receive the light tiles.
        loads = np.array([100, 1, 1, 1, 1, 1])
        owner = assign_tiles(loads, 2)
        heavy_pe = owner[0]
        assert np.all(owner[1:] != heavy_pe)

    def test_single_pe(self):
        owner = assign_tiles(np.array([3, 1]), 1)
        assert np.array_equal(owner, [0, 0])

    def test_empty(self):
        assert assign_tiles(np.array([], dtype=int), 4).size == 0

    def test_round_robin(self):
        owner = assign_tiles(np.array([9, 1, 1, 9]), 2, "round-robin")
        assert owner.tolist() == [0, 1, 0, 1]

    def test_lpt_beats_greedy_on_adversarial_stream(self):
        # Stream order: light tiles first, then two heavy ones — the
        # streaming greedy can strand both heavies behind balanced
        # light loads; LPT places them first.
        loads = np.array([3, 3, 8, 8])
        for policy in ("greedy", "lpt", "round-robin"):
            owner = assign_tiles(loads, 2, policy)
            per_pe = np.bincount(owner, weights=loads, minlength=2)
            if policy == "lpt":
                assert per_pe.max() == 11

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            assign_tiles(np.array([1]), 1, "magic")

    def test_policies_assign_everything(self):
        loads = np.arange(1, 30)
        for policy in ("greedy", "lpt", "round-robin"):
            owner = assign_tiles(loads, 4, policy)
            total = np.bincount(owner, weights=loads, minlength=4).sum()
            assert total == loads.sum()


class TestBreakdown:
    def test_total_is_max_plus_fill(self, rng, table):
        coo = random_structured_coo(rng, 128, "mixed")
        b = perf_breakdown(gc_of(coo, table, 32), SPASM_4_1)
        bounds = [
            b.compute_cycles,
            b.value_stream_cycles,
            b.position_stream_cycles,
            b.x_load_cycles,
            b.y_cycles,
        ]
        assert b.total_cycles == max(bounds) + PIPELINE_FILL_CYCLES

    def test_bottleneck_names_max(self, rng, table):
        coo = random_structured_coo(rng, 128, "mixed")
        b = perf_breakdown(gc_of(coo, table, 32), SPASM_4_1)
        mapping = {
            "compute": b.compute_cycles,
            "value-stream": b.value_stream_cycles,
            "position-stream": b.position_stream_cycles,
            "x-load": b.x_load_cycles,
            "y": b.y_cycles,
        }
        assert mapping[b.bottleneck] == max(mapping.values())

    def test_empty_composition(self, table):
        from repro.matrix import COOMatrix

        coo = COOMatrix([], [], [], (64, 64))
        gc = gc_of(coo, table, 32)
        assert perf_model(gc, SPASM_4_1) == PIPELINE_FILL_CYCLES

    def test_more_pe_groups_not_slower_on_balanced_work(self, table):
        coo = g.banded(512, 4, fill=0.9, seed=0)
        gc = gc_of(coo, table, 32)
        small = HwConfig("SPASM_1_1", 1, 1, 250e6)
        big = HwConfig("SPASM_4_1", 4, 1, 250e6)
        assert perf_model(gc, big) <= perf_model(gc, small)

    def test_more_x_channels_help_x_bound_matrix(self, table):
        # Many tiles but few groups each: x loading dominates.
        coo = g.random_uniform(2048, 0.0005, seed=1)
        gc = gc_of(coo, table, 256)
        b1 = perf_breakdown(gc, HwConfig("SPASM_3_1", 3, 1, 250e6))
        b4 = perf_breakdown(gc, HwConfig("SPASM_3_4", 3, 4, 250e6))
        assert b4.x_load_cycles < b1.x_load_cycles

    def test_y_cycles_proportional_to_tile_rows(self, table):
        coo = g.diagonal_stripes(256, (0,), fill=1.0, seed=0)
        b_small = perf_breakdown(gc_of(coo, table, 16), SPASM_4_1)
        b_big = perf_breakdown(gc_of(coo, table, 256), SPASM_4_1)
        # Same total y elements -> same y traffic regardless of tiling.
        assert b_small.y_cycles == pytest.approx(b_big.y_cycles)


class TestEstimates:
    def test_gflops_below_peak(self, rng, table):
        coo = random_structured_coo(rng, 256, "blocks")
        gc = gc_of(coo, table, 64)
        flops = 2 * coo.nnz + coo.shape[0]
        for config in (SPASM_4_1, SPASM_3_4, SPASM_3_2):
            time_s = perf_model(gc, config) / config.frequency_hz
            assert flops / time_s / 1e9 <= config.peak_gflops

    def test_matches_functional_sim_estimate(self, rng, table):
        coo = random_structured_coo(rng, 96, "mixed")
        portfolio = candidate_portfolios()[0]
        spasm = encode_spasm(coo, portfolio, 32, table)
        from repro.hw import SpasmAccelerator

        result = SpasmAccelerator(SPASM_4_1).run(spasm, np.ones(96))
        expected = perf_model(spasm.global_composition(), SPASM_4_1, 32)
        assert result.cycles == pytest.approx(expected)
