"""The operator interface the solvers consume."""

from __future__ import annotations

import numpy as np

from repro.core.format import SpasmMatrix
from repro.core.framework import SpasmProgram
from repro.exec.plan import ExecutionPlan
from repro.matrix.base import SparseMatrix


class LinearOperator:
    """A matrix seen only through ``y = A @ x``.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    matvec:
        Callable computing ``A @ x`` for a 1-D vector.
    diagonal:
        Optional callable returning the matrix diagonal (needed by
        Jacobi); ``None`` when unavailable.
    """

    def __init__(self, shape, matvec, diagonal=None):
        if len(shape) != 2:
            raise ValueError("shape must be (nrows, ncols)")
        self.shape = (int(shape[0]), int(shape[1]))
        self._matvec = matvec
        self._diagonal = diagonal

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"vector of shape {x.shape} incompatible with "
                f"{self.shape}"
            )
        return np.asarray(self._matvec(x), dtype=np.float64)

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (raises when the backend can't provide
        it)."""
        if self._diagonal is None:
            raise NotImplementedError(
                "this operator does not expose its diagonal"
            )
        return np.asarray(self._diagonal(), dtype=np.float64)

    def __matmul__(self, x):
        return self.matvec(x)


def _coo_diagonal(coo):
    def diagonal():
        n = min(coo.shape)
        diag = np.zeros(n)
        on_diag = coo.rows == coo.cols
        diag_idx = coo.rows[on_diag]
        keep = diag_idx < n
        diag[diag_idx[keep]] = coo.vals[on_diag][keep]
        return diag

    return diagonal


def as_operator(source, jobs: int = 1) -> LinearOperator:
    """Coerce any supported SpMV backend into a :class:`LinearOperator`.

    Accepts: an existing operator, any :class:`SparseMatrix`
    (COO/CSR/...), a :class:`SpasmMatrix`, a compiled
    :class:`ExecutionPlan`, a compiled :class:`SpasmProgram`, or a
    dense 2-D ndarray.  SPASM sources compile their execution plan
    *once* here, so every solver iteration is one CSR matvec over the
    plan arrays; ``jobs`` shards each matvec on a thread pool.
    """
    if isinstance(source, LinearOperator):
        return source
    if isinstance(source, SpasmProgram):
        source = source.plan if source.plan is not None else source.spasm
    if isinstance(source, SpasmMatrix):
        source = source.plan()
    if isinstance(source, ExecutionPlan):
        plan = source
        return LinearOperator(
            plan.shape,
            lambda x: plan.spmv(x, jobs=jobs),
            plan.diagonal,
        )
    if isinstance(source, SparseMatrix):
        from repro.matrix.coo import COOMatrix

        diagonal = (
            _coo_diagonal(source)
            if isinstance(source, COOMatrix)
            else lambda: np.diag(source.to_dense())
        )
        return LinearOperator(source.shape, source.spmv, diagonal)
    try:
        array = np.asarray(source, dtype=np.float64)
    except (TypeError, ValueError):
        raise TypeError(
            f"cannot build an operator from {type(source)!r}"
        ) from None
    if array.ndim == 2:
        return LinearOperator(
            array.shape,
            lambda x: array @ x,
            lambda: np.diag(array),
        )
    raise TypeError(f"cannot build an operator from {type(source)!r}")
