"""Tests for global composition analysis (step ④)."""

import numpy as np
import pytest

from repro.core import DecompositionTable, candidate_portfolios
from repro.core.format import encode_spasm, groups_per_submatrix
from repro.core.patterns import submatrix_masks
from repro.core.tiling import (
    TilingError,
    global_compositions,
    partition_loads,
    validate_tile_size,
)
from repro.matrix import COOMatrix
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def table():
    return DecompositionTable(candidate_portfolios()[0])


def make_gc(coo, table, tile_size):
    counts, keys = groups_per_submatrix(coo, table)
    nnz = submatrix_masks(coo)[2]
    return global_compositions(
        coo.shape, counts, keys, nnz, (tile_size,)
    )[tile_size]


class TestValidateTileSize:
    def test_accepts_multiples_of_k(self):
        assert validate_tile_size(1024) == 1024

    def test_rejects_non_multiple(self):
        with pytest.raises(TilingError):
            validate_tile_size(30)

    def test_rejects_too_small(self):
        with pytest.raises(TilingError):
            validate_tile_size(0)

    def test_rejects_over_budget(self):
        with pytest.raises(TilingError):
            validate_tile_size(2**13 * 4 + 4)

    def test_max_allowed(self):
        assert validate_tile_size(2**13 * 4) == 32768


class TestGlobalComposition:
    def test_counts_match_encoding(self, rng, table):
        coo = random_structured_coo(rng, 96, "mixed")
        gc = make_gc(coo, table, 32)
        spasm = encode_spasm(coo, candidate_portfolios()[0], 32, table)
        assert gc.n_tiles == spasm.n_tiles
        assert np.array_equal(gc.tile_rows, spasm.tile_rows)
        assert np.array_equal(gc.tile_cols, spasm.tile_cols)
        assert np.array_equal(
            gc.groups_per_tile, spasm.groups_per_tile()
        )

    def test_nnz_conserved(self, rng, table):
        coo = random_structured_coo(rng, 96, "mixed")
        gc = make_gc(coo, table, 16)
        assert gc.total_nnz == coo.nnz

    def test_tile_grid_dims(self, table):
        coo = COOMatrix([0], [0], [1.0], (100, 70))
        gc = make_gc(coo, table, 32)
        assert gc.n_tile_rows == 4
        assert gc.n_tile_cols == 3

    def test_occupancy_block_diag(self, block_diag_coo, table):
        gc = make_gc(block_diag_coo, table, 16)
        # Only diagonal tiles occupied: 4 of 16.
        assert gc.n_tiles == 4
        assert gc.occupancy() == pytest.approx(4 / 16)

    def test_tiles_in_row(self, block_diag_coo, table):
        gc = make_gc(block_diag_coo, table, 16)
        assert gc.tiles_in_row().tolist() == [1, 1, 1, 1]

    def test_groups_in_row_sums_to_total(self, rng, table):
        coo = random_structured_coo(rng, 96, "mixed")
        gc = make_gc(coo, table, 16)
        assert gc.groups_in_row().sum() == gc.total_groups

    def test_stream_order_row_major(self, rng, table):
        coo = random_structured_coo(rng, 96, "mixed")
        gc = make_gc(coo, table, 16)
        keys = gc.tile_rows * gc.n_tile_cols + gc.tile_cols
        assert np.all(np.diff(keys) > 0)


class TestImbalance:
    def test_balanced_matrix(self, table):
        coo = g.diagonal_stripes(256, (0,), fill=1.0, seed=0)
        gc = make_gc(coo, table, 16)
        assert gc.imbalance(4) == pytest.approx(1.0)

    def test_imbalanced_matrix(self, table):
        coo = g.dense_rows(256, 4, row_fill=1.0, seed=0)
        gc = make_gc(coo, table, 8)
        assert gc.imbalance(8) > 2.0

    def test_partition_loads_conserves(self):
        loads = partition_loads(np.array([5, 3, 2, 7, 1]), 2)
        assert loads.sum() == 18
        assert loads.tolist() == [5 + 2 + 1, 3 + 7]

    def test_partition_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            partition_loads(np.array([1]), 0)


class TestTileSizeIndependence:
    def test_total_groups_constant_across_tile_sizes(self, rng, table):
        # Decomposition is tile-size independent (the Algorithm 4 fast
        # path relies on this).
        coo = random_structured_coo(rng, 128, "mixed")
        totals = {
            ts: make_gc(coo, table, ts).total_groups
            for ts in (16, 32, 64, 128)
        }
        assert len(set(totals.values())) == 1

    def test_groups_match_submatrix_masks(self, rng, table):
        coo = random_structured_coo(rng, 64, "mixed")
        counts, keys = groups_per_submatrix(coo, table)
        masks, keys2 = submatrix_masks(coo)[:2]
        assert np.array_equal(keys, keys2)
        assert counts.size == masks.size
