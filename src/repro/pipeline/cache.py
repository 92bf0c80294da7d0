"""Content digest of a COO matrix.

:func:`matrix_digest` names a matrix by its content, so a caller can
tell whether two COO payloads are the same matrix without comparing
them element by element.
"""

from __future__ import annotations

import hashlib

from repro.matrix.coo import COOMatrix


def matrix_digest(coo: COOMatrix) -> str:
    """Content digest of a COO matrix (shape + coordinates + values)."""
    h = hashlib.sha256()
    h.update(repr(tuple(coo.shape)).encode())
    for arr in (coo.rows, coo.cols, coo.vals):
        h.update(arr.tobytes())
    return h.hexdigest()
