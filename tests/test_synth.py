"""Tests for the synthetic generators and the Table II workload suite."""

import numpy as np
import pytest

from repro.core import analyze_local_patterns
from repro.core.bitmask import antidiag_mask, diag_mask, full_mask
from repro.synth import (
    WORKLOAD_SUITE,
    load_suite,
    load_workload,
    workload_names,
)
from repro.synth import generators as g


class TestGenerators:
    def test_block_diagonal_full(self):
        coo = g.block_diagonal(4, 4, fill=1.0, seed=0)
        assert coo.shape == (16, 16)
        assert coo.nnz == 64
        hist = analyze_local_patterns(coo)
        assert hist.n_distinct == 1
        assert hist.patterns[0] == full_mask(4)

    def test_block_diagonal_dbb(self):
        coo = g.block_diagonal(10, 4, fill=0.5, seed=0)
        assert 0 < coo.nnz < 160
        # Every block retains at least one entry.
        dense = coo.to_dense()
        for b in range(0, 40, 4):
            assert dense[b : b + 4, b : b + 4].any()

    def test_banded_within_band(self):
        coo = g.banded(64, 3, fill=1.0, seed=0)
        assert np.all(np.abs(coo.rows - coo.cols) <= 3)

    def test_diagonal_stripes_offsets(self):
        coo = g.diagonal_stripes(32, (0, 5), fill=1.0, seed=0)
        offsets = set((coo.cols - coo.rows).tolist())
        assert offsets == {0, 5}

    def test_anti_diagonal_stripes(self):
        coo = g.anti_diagonal_stripes(64, (0,), fill=1.0, seed=0)
        assert np.all(coo.rows + coo.cols == 63)
        hist = analyze_local_patterns(coo)
        assert int(hist.patterns[0]) in {
            antidiag_mask(s, 4) for s in range(4)
        }

    def test_fem_mesh_diagonal_blocks_dense(self):
        coo = g.fem_mesh(16, dof=4, neighbors=4, block_fill=0.5, seed=0)
        dense = coo.to_dense()
        for node in range(16):
            block = dense[node * 4 : node * 4 + 4, node * 4 : node * 4 + 4]
            assert np.all(block != 0)

    def test_fem_mesh_shape(self):
        coo = g.fem_mesh(10, dof=3, neighbors=4, seed=0)
        assert coo.shape == (30, 30)

    def test_mycielskian_sizes(self):
        # M_k has 3 * 2^(k-2) - 1 vertices.
        for order, n in ((2, 2), (3, 5), (4, 11), (5, 23)):
            coo = g.mycielskian_graph(order)
            assert coo.shape == (n, n)

    def test_mycielskian_symmetric_no_selfloops(self):
        coo = g.mycielskian_graph(6)
        dense = coo.to_dense()
        assert np.allclose(dense != 0, (dense != 0).T)
        assert np.all(np.diag(dense) == 0)

    def test_mycielskian_triangle_free(self):
        # The Mycielskian of a triangle-free graph stays triangle-free.
        coo = g.mycielskian_graph(5)
        adj = (coo.to_dense() != 0).astype(int)
        assert np.trace(adj @ adj @ adj) == 0

    def test_mycielskian_rejects_bad_order(self):
        with pytest.raises(ValueError):
            g.mycielskian_graph(1)

    def test_power_law_symmetric(self):
        coo = g.power_law_graph(128, avg_degree=6, seed=0)
        dense = coo.to_dense() != 0
        assert np.array_equal(dense, dense.T)

    def test_random_uniform_density(self):
        coo = g.random_uniform(256, 0.01, seed=0)
        assert coo.density == pytest.approx(0.01, rel=0.2)

    def test_random_uniform_rectangular(self):
        coo = g.random_uniform(16, 0.05, seed=0, ncols=64)
        assert coo.shape == (16, 64)

    def test_row_segments_contiguous(self):
        coo = g.row_segments(32, 1, 8, seed=0)
        # Every row has at least one run of 8 consecutive columns.
        dense = coo.to_dense() != 0
        for r in range(32):
            row = dense[r]
            runs = np.diff(
                np.concatenate(([0], row.astype(int), [0]))
            )
            lengths = (
                np.nonzero(runs == -1)[0] - np.nonzero(runs == 1)[0]
            )
            assert lengths.max() >= 8

    def test_staircase_shape(self):
        coo = g.staircase(5, 4, 4, coupling_cols=2, fill=1.0, seed=0)
        assert coo.shape == (20, 22)

    def test_dense_rows_at_bottom(self):
        coo = g.dense_rows(64, 3, row_fill=1.0, seed=0)
        assert set(coo.rows.tolist()) == {61, 62, 63}

    def test_overlay_merges(self):
        a = g.diagonal_stripes(16, (0,), fill=1.0, seed=0)
        b = g.diagonal_stripes(16, (3,), fill=1.0, seed=1)
        merged = g.overlay(a, b)
        assert merged.nnz == a.nnz + b.nnz

    def test_overlay_requires_input(self):
        with pytest.raises(ValueError):
            g.overlay()

    def test_determinism(self):
        a = g.banded(64, 2, fill=0.5, seed=42)
        b = g.banded(64, 2, fill=0.5, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        a = g.banded(64, 2, fill=0.5, seed=1)
        b = g.banded(64, 2, fill=0.5, seed=2)
        assert a != b


class TestWorkloadSuite:
    def test_twenty_workloads(self):
        assert len(WORKLOAD_SUITE) == 20
        assert len(workload_names()) == 20

    def test_names_match_table_ii(self):
        expected = {
            "mycielskian14", "ex11", "raefsky3", "mip1", "rim", "3dtube",
            "bbmat", "Chebyshev4", "Goodwin_054", "x104", "cfd2",
            "ML_Laplace", "af_0_k101", "PFlow_742", "c-73", "af_shell10",
            "tmt_sym", "tmt_unsym", "t2em", "stormG2_1000",
        }
        assert set(workload_names()) == expected

    def test_ordered_by_paper_density(self):
        densities = [spec.paper_density for spec in WORKLOAD_SUITE]
        assert densities == sorted(densities, reverse=True)

    def test_load_by_name_deterministic(self):
        a = load_workload("tmt_sym")
        b = load_workload("tmt_sym")
        assert a == b

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_workload("not_a_matrix")

    def test_scale_grows_instances(self):
        small = load_workload("ML_Laplace", scale=0.5)
        big = load_workload("ML_Laplace", scale=1.0)
        assert big.nnz > small.nnz

    def test_load_suite_subset(self):
        pairs = list(load_suite(names=["raefsky3", "t2em"]))
        assert [spec.name for spec, __ in pairs] == ["raefsky3", "t2em"]

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_buildable(self, name):
        coo = load_workload(name, scale=0.25)
        assert coo.nnz > 0
        assert coo.shape[0] > 0

    def test_raefsky3_single_pattern(self):
        hist = analyze_local_patterns(load_workload("raefsky3", 0.5))
        assert hist.n_distinct == 1  # paper: 100% one local pattern

    def test_c73_antidiag_dominated(self):
        # The top patterns must all be (partial) anti-diagonal vectors:
        # submasks of a single cyclic anti-diagonal template.
        hist = analyze_local_patterns(load_workload("c-73", 0.5))
        adiag = [antidiag_mask(s, 4) for s in range(4)]
        for pattern in hist.top(3).patterns:
            assert any(int(pattern) & ~m == 0 for m in adiag)

    def test_t2em_diag_dominated(self):
        hist = analyze_local_patterns(load_workload("t2em", 0.5))
        diag = [diag_mask(s, 4) for s in range(4)]
        for pattern in hist.top(3).patterns:
            assert any(int(pattern) & ~m == 0 for m in diag)

    def test_mip1_imbalanced(self):
        from repro.baselines import matrix_stats

        stats = matrix_stats(load_workload("mip1", 0.5))
        assert stats.row_cv > 2.0
