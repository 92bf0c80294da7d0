"""Unit tests for CSR, BSR, ELL and DIA formats."""

import numpy as np
import pytest

from repro.matrix import (
    BSRMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MatrixShapeError,
)
from repro.matrix.ell import ELL_PAD


class TestCSR:
    def test_basic_spmv(self, rng):
        # [[1, 2], [0, 3]]
        m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        assert np.allclose(m.spmv([1.0, 1.0]), [3.0, 3.0])

    def test_to_dense(self):
        m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        assert np.array_equal(m.to_dense(), [[1.0, 2.0], [0.0, 3.0]])

    def test_row_access(self):
        m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        cols, vals = m.row(0)
        assert cols.tolist() == [0, 1]
        assert vals.tolist() == [1.0, 2.0]

    def test_row_lengths(self):
        m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        assert m.row_lengths().tolist() == [2, 1]

    def test_empty_rows_spmv(self):
        m = CSRMatrix([0, 0, 1, 1], [2], [5.0], (3, 3))
        assert np.allclose(m.spmv([0.0, 0.0, 2.0]), [0.0, 10.0, 0.0])

    def test_rejects_bad_indptr_length(self):
        with pytest.raises(MatrixShapeError):
            CSRMatrix([0, 1], [0], [1.0], (2, 2))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(MatrixShapeError):
            CSRMatrix([0, 2, 1], [0, 1], [1.0, 2.0], (2, 2))

    def test_rejects_indptr_mismatch(self):
        with pytest.raises(MatrixShapeError):
            CSRMatrix([0, 1, 3], [0, 1], [1.0, 2.0], (2, 2))

    def test_rejects_out_of_range_column(self):
        with pytest.raises(MatrixShapeError):
            CSRMatrix([0, 1, 1], [5], [1.0], (2, 2))

    def test_storage_bytes(self):
        m = CSRMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2))
        assert m.storage_bytes() == 3 * 4 + 3 * 8


class TestBSR:
    def test_basic_spmv(self):
        blocks = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        m = BSRMatrix([0, 1, 1], [0], blocks, (4, 4))
        y = m.spmv([1.0, 1.0, 0.0, 0.0])
        assert np.allclose(y, [3.0, 7.0, 0.0, 0.0])

    def test_to_dense(self):
        blocks = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        m = BSRMatrix([0, 0, 1], [1], blocks, (4, 4))
        dense = m.to_dense()
        assert dense[2, 2] == 1.0 and dense[3, 3] == 1.0
        assert dense[:2].sum() == 0.0

    def test_nnz_excludes_padding(self):
        blocks = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        m = BSRMatrix([0, 1], [0], blocks, (2, 2))
        assert m.nnz == 1
        assert m.stored_values == 4

    def test_rejects_indivisible_shape(self):
        blocks = np.zeros((1, 2, 2))
        with pytest.raises(MatrixShapeError):
            BSRMatrix([0, 1], [0], blocks, (3, 4))

    def test_rejects_block_index_out_of_range(self):
        blocks = np.zeros((1, 2, 2))
        with pytest.raises(MatrixShapeError):
            BSRMatrix([0, 1], [5], blocks, (2, 4))

    def test_storage_bytes(self):
        blocks = np.ones((2, 2, 2))
        m = BSRMatrix([0, 1, 2], [0, 1], blocks, (4, 4))
        # 3 row pointers + 2 block indices + 8 padded values
        assert m.storage_bytes() == 3 * 4 + 2 * 4 + 8 * 4

    def test_empty_spmv(self):
        m = BSRMatrix([0, 0], [], np.zeros((0, 2, 2)), (2, 2))
        assert np.allclose(m.spmv([1.0, 1.0]), [0.0, 0.0])


class TestELL:
    def test_basic_spmv(self):
        col_idx = np.array([[0, 1], [1, ELL_PAD]])
        values = np.array([[1.0, 2.0], [3.0, 0.0]])
        m = ELLMatrix(col_idx, values, (2, 2))
        assert np.allclose(m.spmv([1.0, 1.0]), [3.0, 3.0])

    def test_padding_not_counted_in_nnz(self):
        col_idx = np.array([[0], [ELL_PAD]])
        values = np.array([[1.0], [0.0]])
        m = ELLMatrix(col_idx, values, (2, 2))
        assert m.nnz == 1
        assert m.stored_values == 2

    def test_rejects_nonzero_padding_value(self):
        col_idx = np.array([[ELL_PAD]])
        values = np.array([[3.0]])
        with pytest.raises(MatrixShapeError):
            ELLMatrix(col_idx, values, (1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(MatrixShapeError):
            ELLMatrix(np.array([[9]]), np.array([[1.0]]), (1, 2))

    def test_zero_width(self):
        m = ELLMatrix(np.zeros((2, 0), dtype=int), np.zeros((2, 0)), (2, 2))
        assert np.allclose(m.spmv([1.0, 1.0]), [0.0, 0.0])

    def test_storage_bytes(self):
        col_idx = np.array([[0, 1], [1, ELL_PAD]])
        values = np.array([[1.0, 2.0], [3.0, 0.0]])
        m = ELLMatrix(col_idx, values, (2, 2))
        assert m.storage_bytes() == 4 * 8


class TestDIA:
    def test_basic_spmv(self):
        # main diagonal [1, 2] plus superdiagonal [5] at offset 1
        stripes = np.array([[1.0, 2.0], [5.0, 0.0]])
        m = DIAMatrix([0, 1], stripes, (2, 2))
        assert np.allclose(m.spmv([1.0, 1.0]), [6.0, 2.0])

    def test_to_dense(self):
        stripes = np.array([[1.0, 2.0]])
        m = DIAMatrix([0], stripes, (2, 2))
        assert np.array_equal(m.to_dense(), [[1.0, 0.0], [0.0, 2.0]])

    def test_negative_offset(self):
        stripes = np.array([[0.0, 7.0]])
        m = DIAMatrix([-1], stripes, (2, 2))
        assert m.to_dense()[1, 0] == 7.0

    def test_rejects_duplicate_offsets(self):
        with pytest.raises(MatrixShapeError):
            DIAMatrix([0, 0], np.zeros((2, 2)), (2, 2))

    def test_rejects_stripe_count_mismatch(self):
        with pytest.raises(MatrixShapeError):
            DIAMatrix([0], np.zeros((2, 2)), (2, 2))

    def test_storage_bytes(self):
        m = DIAMatrix([0], np.array([[1.0, 2.0]]), (2, 2))
        assert m.storage_bytes() == 4 + 2 * 4

    def test_nnz_excludes_stripe_padding(self):
        stripes = np.array([[5.0, 0.0]])
        m = DIAMatrix([1], stripes, (2, 2))
        assert m.nnz == 1
        assert m.stored_values == 2
