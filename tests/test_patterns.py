"""Tests for local pattern analysis (paper Algorithm 2)."""

import numpy as np
import pytest

from repro.core import analyze_local_patterns
from repro.core.bitmask import diag_mask, full_mask, popcount_array, row_mask
from repro.core.patterns import submatrix_masks
from repro.matrix import COOMatrix
from repro.synth import generators as g


class TestAnalyze:
    def test_single_dense_block(self):
        dense = np.zeros((8, 8))
        dense[:4, :4] = 1.0
        hist = analyze_local_patterns(COOMatrix.from_dense(dense))
        assert hist.n_distinct == 1
        assert hist.patterns[0] == full_mask(4)
        assert hist.frequencies[0] == 1

    def test_identity_matrix_is_all_diag(self):
        coo = COOMatrix.from_dense(np.eye(16))
        hist = analyze_local_patterns(coo)
        assert hist.n_distinct == 1
        assert hist.patterns[0] == diag_mask(0, 4)
        assert hist.frequencies[0] == 4

    def test_row_pattern(self):
        dense = np.zeros((4, 4))
        dense[2, :] = 1.0
        hist = analyze_local_patterns(COOMatrix.from_dense(dense))
        assert hist.patterns[0] == row_mask(2, 4)

    def test_total_counts_nonempty_submatrices(self):
        dense = np.zeros((8, 8))
        dense[0, 0] = 1.0
        dense[5, 5] = 1.0
        hist = analyze_local_patterns(COOMatrix.from_dense(dense))
        assert hist.total == 2

    def test_nnz_conservation(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        recovered = int(
            (hist.nnz_per_pattern() * hist.frequencies).sum()
        )
        assert recovered == small_coo.nnz

    def test_frequencies_sorted_descending(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        freqs = hist.frequencies
        assert all(freqs[i] >= freqs[i + 1] for i in range(len(freqs) - 1))

    def test_empty_matrix(self):
        hist = analyze_local_patterns(COOMatrix([], [], [], (8, 8)))
        assert hist.n_distinct == 0
        assert hist.total == 0

    def test_non_multiple_shape(self):
        dense = np.zeros((5, 7))
        dense[4, 6] = 1.0
        hist = analyze_local_patterns(COOMatrix.from_dense(dense))
        assert hist.total == 1

    def test_k2(self):
        coo = COOMatrix.from_dense(np.eye(4))
        hist = analyze_local_patterns(coo, k=2)
        assert hist.patterns[0] == diag_mask(0, 2)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            analyze_local_patterns(np.eye(4))

    def test_rejects_bad_k(self):
        coo = COOMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            analyze_local_patterns(coo, k=0)
        with pytest.raises(ValueError):
            analyze_local_patterns(coo, k=6)


class TestHistogramOps:
    def test_top_n(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        top = hist.top(3)
        assert top.n_distinct <= 3
        assert np.array_equal(top.patterns, hist.patterns[:3])

    def test_top_more_than_available(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        assert hist.top(10**6).n_distinct == hist.n_distinct

    def test_top_fraction_reaches_coverage(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        sub = hist.top_fraction(0.5)
        assert sub.total / hist.total >= 0.5

    def test_top_fraction_minimal(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        sub = hist.top_fraction(0.5)
        if sub.n_distinct > 1:
            smaller = hist.top(sub.n_distinct - 1)
            assert smaller.total / hist.total < 0.5

    def test_top_fraction_rejects_bad_coverage(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        with pytest.raises(ValueError):
            hist.top_fraction(0.0)
        with pytest.raises(ValueError):
            hist.top_fraction(1.5)

    def test_cdf_monotone_ending_at_one(self, small_coo):
        cdf = analyze_local_patterns(small_coo).cdf()
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_coverage_of_top(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        assert hist.coverage_of_top(hist.n_distinct) == pytest.approx(1.0)
        assert 0 < hist.coverage_of_top(1) <= 1

    def test_describe_top_renders(self, small_coo):
        text = analyze_local_patterns(small_coo).describe_top(2)
        assert "#1:" in text


class TestSubmatrixMasks:
    def test_keys_sorted(self, small_coo):
        keys = submatrix_masks(small_coo)[1]
        assert np.all(np.diff(keys) > 0)

    def test_masks_nonzero(self, small_coo):
        masks = submatrix_masks(small_coo)[0]
        assert np.all(masks > 0)

    def test_block_diag_masks_full(self, block_diag_coo):
        masks, keys = submatrix_masks(block_diag_coo)[:2]
        assert np.all(masks == full_mask(4))
        assert masks.size == 16

    def test_entry_counts(self, small_coo):
        masks, __, nnz, __ = submatrix_masks(small_coo)
        assert nnz.sum() == small_coo.nnz
        assert np.array_equal(nnz, popcount_array(masks))

    def test_entry_order_groups_by_key(self, small_coo):
        __, keys, nnz, order = submatrix_masks(small_coo)
        assert np.array_equal(np.sort(order), np.arange(small_coo.nnz))
        nsubcols = -(-small_coo.shape[1] // 4)
        entry_keys = (
            small_coo.rows[order] // 4 * nsubcols + small_coo.cols[order] // 4
        )
        assert np.array_equal(entry_keys, np.repeat(keys, nnz))

    def test_duplicate_coordinate_rejected(self):
        coo = COOMatrix([1, 6, 1], [2, 6, 2], [1.0, 1.0, 1.0], (8, 8),
                        dedup=False)
        with pytest.raises(ValueError, match=r"duplicate coordinate \(1, 2\)"):
            submatrix_masks(coo)


class TestStructuredInputs:
    """The generators should produce their advertised dominant patterns."""

    def test_diagonal_stripes_dominated_by_diag(self):
        coo = g.diagonal_stripes(64, (0,), fill=1.0, seed=0)
        hist = analyze_local_patterns(coo)
        assert hist.patterns[0] == diag_mask(0, 4)

    def test_row_segments_dominated_by_rows(self):
        coo = g.row_segments(64, 1, 16, seed=0)
        hist = analyze_local_patterns(coo)
        top = int(hist.patterns[0])
        assert top in {row_mask(r, 4) for r in range(4)}
