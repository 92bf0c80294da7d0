"""Conversion round-trip and cross-format agreement tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.matrix import (
    COOMatrix,
    coo_to_bsr,
    coo_to_csr,
    coo_to_dia,
    coo_to_ell,
    from_dense,
)
from repro.matrix.base import MatrixShapeError


def dense_matrices(max_dim=24):
    """Hypothesis strategy: small dense float matrices with some zeros."""
    shapes = st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    )
    return shapes.flatmap(
        lambda s: hnp.arrays(
            dtype=np.float64,
            shape=s,
            elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, -3.5]),
        )
    )


class TestRoundtrips:
    @settings(max_examples=40, deadline=None)
    @given(dense_matrices())
    def test_csr_roundtrip(self, dense):
        coo = from_dense(dense)
        assert np.array_equal(coo_to_csr(coo).to_dense(), coo.to_dense())

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices())
    def test_ell_preserves_dense(self, dense):
        coo = from_dense(dense)
        assert np.array_equal(coo_to_ell(coo).to_dense(), coo.to_dense())

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices())
    def test_dia_preserves_dense(self, dense):
        coo = from_dense(dense)
        assert np.array_equal(coo_to_dia(coo).to_dense(), coo.to_dense())

    @settings(max_examples=40, deadline=None)
    @given(dense_matrices())
    def test_bsr_preserves_dense_up_to_padding(self, dense):
        coo = from_dense(dense)
        bsr = coo_to_bsr(coo, (2, 2))
        padded = bsr.to_dense()
        assert np.array_equal(
            padded[: dense.shape[0], : dense.shape[1]], coo.to_dense()
        )


class TestSpmvAgreement:
    @settings(max_examples=25, deadline=None)
    @given(dense_matrices())
    def test_all_formats_agree(self, dense):
        coo = from_dense(dense)
        rng = np.random.default_rng(7)
        x = rng.random(dense.shape[1])
        reference = dense @ x
        assert np.allclose(coo.spmv(x), reference)
        assert np.allclose(coo_to_csr(coo).spmv(x), reference)
        assert np.allclose(coo_to_ell(coo).spmv(x), reference)
        assert np.allclose(coo_to_dia(coo).spmv(x), reference)
        bsr = coo_to_bsr(coo, (2, 2))
        x_pad = np.zeros(bsr.shape[1])
        x_pad[: x.size] = x
        assert np.allclose(
            bsr.spmv(x_pad)[: dense.shape[0]], reference
        )


class TestNnzInvariants:
    @settings(max_examples=25, deadline=None)
    @given(dense_matrices())
    def test_nnz_preserved(self, dense):
        coo = from_dense(dense)
        assert coo_to_csr(coo).nnz == coo.nnz
        assert coo_to_ell(coo).nnz == coo.nnz
        assert coo_to_dia(coo).nnz == coo.nnz
        assert coo_to_bsr(coo, (2, 2)).nnz == coo.nnz


class TestBSRShapes:
    def test_pads_shape_up(self):
        coo = COOMatrix([0], [0], [1.0], (3, 5))
        bsr = coo_to_bsr(coo, (2, 2))
        assert bsr.shape == (4, 6)

    def test_rejects_bad_block(self):
        coo = COOMatrix([0], [0], [1.0], (2, 2))
        with pytest.raises(MatrixShapeError):
            coo_to_bsr(coo, (0, 2))

    def test_block_count(self, block_diag_coo):
        bsr = coo_to_bsr(block_diag_coo, (4, 4))
        assert bsr.nblocks == 16  # 64/4 diagonal blocks
        assert bsr.nnz == block_diag_coo.nnz
