"""Conversions between the sparse formats.

All conversions route through row-major sorted COO, which every
constructor normalizes to, so round trips are exact.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.base import MatrixShapeError
from repro.matrix.bsr import BSRMatrix
from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from repro.matrix.dia import DIAMatrix
from repro.matrix.ell import ELL_PAD, ELLMatrix


def from_dense(dense: np.ndarray) -> COOMatrix:
    """Build a COO matrix from a dense array, dropping zeros."""
    return COOMatrix.from_dense(dense)


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert COO (assumed deduplicated) to CSR."""
    counts = np.bincount(coo.rows, minlength=coo.shape[0])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(indptr, coo.cols, coo.vals, coo.shape)


def coo_to_bsr(coo: COOMatrix, blockshape=(2, 2)) -> BSRMatrix:
    """Convert COO to BSR with the given block shape.

    The logical shape is padded up to a multiple of the block shape (the
    paper's comparison implicitly does the same when it applies 2x2 BSR to
    arbitrary matrices).
    """
    br, bc = int(blockshape[0]), int(blockshape[1])
    if br <= 0 or bc <= 0:
        raise MatrixShapeError("block dimensions must be positive")
    nrows = -(-coo.shape[0] // br) * br
    ncols = -(-coo.shape[1] // bc) * bc
    nblockrows, nblockcols = nrows // br, ncols // bc

    brow = coo.rows // br
    bcol = coo.cols // bc
    keys = brow * nblockcols + bcol
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    unique_keys, block_of_entry = np.unique(keys_sorted, return_inverse=True)

    nblocks = unique_keys.size
    blocks = np.zeros((nblocks, br, bc), dtype=np.float64)
    rr = (coo.rows[order] % br).astype(np.int64)
    cc = (coo.cols[order] % bc).astype(np.int64)
    blocks[block_of_entry, rr, cc] = coo.vals[order]

    ubrow = unique_keys // nblockcols
    indices = unique_keys % nblockcols
    counts = np.bincount(ubrow, minlength=nblockrows)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return BSRMatrix(indptr, indices, blocks, (nrows, ncols))


def coo_to_ell(coo: COOMatrix) -> ELLMatrix:
    """Convert COO to ELL; the width is the maximum row length."""
    nrows = coo.shape[0]
    lengths = np.bincount(coo.rows, minlength=nrows)
    width = int(lengths.max()) if lengths.size else 0
    col_idx = np.full((nrows, width), ELL_PAD, dtype=np.int64)
    values = np.zeros((nrows, width), dtype=np.float64)
    # COO is row-major sorted; compute each entry's slot within its row.
    starts = np.concatenate(([0], np.cumsum(lengths)))
    slot = np.arange(coo.nnz, dtype=np.int64) - starts[coo.rows]
    col_idx[coo.rows, slot] = coo.cols
    values[coo.rows, slot] = coo.vals
    return ELLMatrix(col_idx, values, coo.shape)


def coo_to_dia(coo: COOMatrix) -> DIAMatrix:
    """Convert COO to DIA, storing every diagonal that has a non-zero."""
    offs = coo.cols - coo.rows
    offsets = np.unique(offs)
    stripes = np.zeros((offsets.size, coo.shape[0]), dtype=np.float64)
    stripe_of_entry = np.searchsorted(offsets, offs)
    stripes[stripe_of_entry, coo.rows] = coo.vals
    return DIAMatrix(offsets, stripes, coo.shape)
