"""Tests for accumulator hazard modeling and hazard-aware reordering."""

import numpy as np
import pytest

from repro.core import candidate_portfolios, encode_spasm
from repro.hw.configs import SPASM_4_1
from repro.hw.hazards import (
    count_stall_cycles,
    hazard_aware_reorder,
    perf_with_hazards,
    stall_cycles_per_tile,
)
from repro.matrix import COOMatrix
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def portfolio():
    return candidate_portfolios()[0]


def single_row_stream(portfolio, n_blocks=6):
    """A matrix whose tile stream repeatedly hits the same r_idx: a
    horizontal strip of dense 4x4 blocks in one submatrix row."""
    dense = np.zeros((16, 16 * n_blocks))
    for b in range(n_blocks):
        dense[0:4, b * 16 : b * 16 + 4] = 1.0
    coo = COOMatrix.from_dense(dense)
    return encode_spasm(coo, portfolio, 16 * n_blocks)


class TestCountStalls:
    def test_zero_latency_no_stalls(self, portfolio, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        assert count_stall_cycles(spasm, 0) == 0

    def test_back_to_back_same_row(self, portfolio):
        spasm = single_row_stream(portfolio, n_blocks=3)
        # Every group targets submatrix row 0 (the same 4-wide psum
        # word), so each consecutive pair stalls latency-1 cycles.
        n = spasm.n_groups
        assert n == 12  # 3 dense blocks x 4 row templates
        assert count_stall_cycles(spasm, 8) == (n - 1) * (8 - 1)

    def test_distinct_rows_no_stalls(self, portfolio):
        coo = COOMatrix.from_dense(np.eye(64))
        spasm = encode_spasm(coo, portfolio, 64)
        # 16 diagonal groups, each in a distinct r_idx.
        assert count_stall_cycles(spasm, 8) == 0

    def test_latency_scales_stalls(self, portfolio):
        spasm = single_row_stream(portfolio)
        assert count_stall_cycles(spasm, 4) < count_stall_cycles(
            spasm, 12
        )

    def test_per_tile_sums_to_total(self, portfolio, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16)
        per_tile = stall_cycles_per_tile(spasm, 8)
        assert per_tile.sum() == count_stall_cycles(spasm, 8)

    def test_rejects_negative_latency(self, portfolio):
        spasm = single_row_stream(portfolio)
        with pytest.raises(ValueError):
            count_stall_cycles(spasm, -1)

    def test_empty_matrix(self, portfolio):
        spasm = encode_spasm(COOMatrix([], [], [], (16, 16)),
                             portfolio, 16)
        assert count_stall_cycles(spasm, 8) == 0


class TestReorder:
    def test_preserves_semantics(self, portfolio, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        reordered = hazard_aware_reorder(spasm)
        x = rng.random(96)
        assert np.allclose(reordered.spmv(x), coo.spmv(x))
        assert np.array_equal(
            reordered.to_coo().to_dense(), coo.to_dense()
        )

    def test_preserves_tile_structure(self, portfolio, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        reordered = hazard_aware_reorder(spasm)
        assert np.array_equal(reordered.tile_ptr, spasm.tile_ptr)
        assert np.array_equal(reordered.tile_rows, spasm.tile_rows)
        assert reordered.n_groups == spasm.n_groups
        assert reordered.padding == spasm.padding

    def test_flags_recomputed_consistently(self, portfolio, rng):
        from repro.core.encoding import unpack_position_array

        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16)
        reordered = hazard_aware_reorder(spasm)
        fields = unpack_position_array(reordered.words)
        boundaries = set((reordered.tile_ptr[1:] - 1).tolist())
        for i in range(reordered.n_groups):
            assert fields["ce"][i] == (i in boundaries)
        assert np.all(~fields["re"] | fields["ce"])

    def test_reduces_stalls_on_row_heavy_stream(self, portfolio):
        # A tile with two active submatrix rows but visits clustered by
        # row: interleaving must cut stalls.
        dense = np.zeros((16, 64))
        dense[0:4, :] = 1.0
        dense[8:12, :] = 1.0
        coo = COOMatrix.from_dense(dense)
        spasm = encode_spasm(coo, portfolio, 64)
        before = count_stall_cycles(spasm, 8)
        after = count_stall_cycles(hazard_aware_reorder(spasm), 8)
        assert 0 <= after < before

    def test_simulates_correctly_after_reorder(self, portfolio, rng):
        from repro.hw import SpasmAccelerator

        coo = random_structured_coo(rng, 64, "mixed")
        spasm = hazard_aware_reorder(encode_spasm(coo, portfolio, 32))
        x = rng.random(64)
        result = SpasmAccelerator(SPASM_4_1).run(spasm, x)
        assert np.allclose(result.y, coo.spmv(x))

    def test_empty_passthrough(self, portfolio):
        spasm = encode_spasm(COOMatrix([], [], [], (16, 16)),
                             portfolio, 16)
        assert hazard_aware_reorder(spasm) is spasm


class TestPerfWithHazards:
    def test_zero_latency_matches_base_model(self, portfolio, rng):
        from repro.hw.perf_model import perf_model

        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        base = perf_model(
            spasm.global_composition(), SPASM_4_1, spasm.tile_size
        )
        assert perf_with_hazards(spasm, SPASM_4_1, 0) == pytest.approx(
            base
        )

    def test_latency_never_speeds_up(self, portfolio, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        assert perf_with_hazards(spasm, SPASM_4_1, 8) >= (
            perf_with_hazards(spasm, SPASM_4_1, 0)
        )

    def test_reorder_never_hurts_estimate(self, portfolio, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32)
        reordered = hazard_aware_reorder(spasm)
        assert perf_with_hazards(reordered, SPASM_4_1, 8) <= (
            perf_with_hazards(spasm, SPASM_4_1, 8) + 1e-9
        )
