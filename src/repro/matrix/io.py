"""Minimal Matrix Market (.mtx) reader.

Supports the ``matrix coordinate`` container with ``real``, ``integer`` or
``pattern`` fields and ``general`` or ``symmetric`` symmetry — enough to
load SuiteSparse matrices when they are available.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.coo import COOMatrix


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input."""


def read_matrix_market(path) -> COOMatrix:
    """Read a Matrix Market coordinate file into a :class:`COOMatrix`."""
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket banner")
        parts = header.split()
        if len(parts) < 5 or parts[1] != "matrix":
            raise MatrixMarketError(f"unsupported banner: {header.strip()}")
        layout, field, symmetry = parts[2], parts[3], parts[4]
        if layout != "coordinate":
            raise MatrixMarketError(f"unsupported layout {layout!r}")
        if field not in ("real", "integer", "pattern"):
            raise MatrixMarketError(f"unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise MatrixMarketError(f"bad size line: {line.strip()}")
        nrows, ncols, nnz = (int(v) for v in dims)

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k in range(nnz):
            entry = handle.readline().split()
            if len(entry) < 2:
                raise MatrixMarketError(f"truncated entry at line {k}")
            rows[k] = int(entry[0]) - 1
            cols[k] = int(entry[1]) - 1
            vals[k] = float(entry[2]) if field != "pattern" else 1.0

    if symmetry == "symmetric":
        off_diag = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off_diag]]),
            np.concatenate([cols, rows[off_diag]]),
            np.concatenate([vals, vals[off_diag]]),
        )
    return COOMatrix(rows, cols, vals, (nrows, ncols))
