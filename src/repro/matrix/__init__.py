"""Sparse matrix substrate implemented from scratch on top of numpy.

This package provides the classic sparse storage formats the paper compares
against (Table I): COO, CSR, BSR, ELL and DIA, together with format
conversions, a reference SpMV for each format, Matrix Market input and the
storage-cost accounting used in the Figure 11 / Table VI comparison.
"""

from repro.matrix.base import SparseMatrix, MatrixShapeError
from repro.matrix.coo import COOMatrix
from repro.matrix.csr import CSRMatrix
from repro.matrix.bsr import BSRMatrix
from repro.matrix.ell import ELLMatrix
from repro.matrix.dia import DIAMatrix
from repro.matrix.convert import (
    coo_to_csr,
    coo_to_bsr,
    coo_to_ell,
    coo_to_dia,
    from_dense,
)
from repro.matrix.storage import (
    StorageReport,
    storage_cost,
    storage_report,
    FORMAT_COSTS,
)
from repro.matrix.io import read_matrix_market

__all__ = [
    "SparseMatrix",
    "MatrixShapeError",
    "COOMatrix",
    "CSRMatrix",
    "BSRMatrix",
    "ELLMatrix",
    "DIAMatrix",
    "coo_to_csr",
    "coo_to_bsr",
    "coo_to_ell",
    "coo_to_dia",
    "from_dense",
    "StorageReport",
    "storage_cost",
    "storage_report",
    "FORMAT_COSTS",
    "read_matrix_market",
]
