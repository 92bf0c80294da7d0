"""The one SpMV kernel: scipy's compiled CSR routines over a plan.

scipy's ``csr_matvec``/``csr_matvecs`` accumulate each output row
sequentially, left to right, starting from the value already in the
output — the order of ``spmv_naive``, which scatter-adds each row's
terms into ``y`` — and take int32 or int64 index arrays natively, so
every plan layout runs through them bitwise equal to the naive engine,
with or without ``y``.  scipy is a hard dependency: importing this
module (and so :mod:`repro.exec`) without it raises ``ImportError``;
there is no slower fallback to drift out of test.

This module is the **only** place allowed to touch
``scipy.sparse._sparsetools`` (machine-enforced by the
``exec.raw-kernel`` self-lint) and holds the plan's numpy kernel and
row-pointer math (the ``exec.plan-kernel`` self-lint keeps it out of
``plan.py``).  The kernel reads the plan arrays — ``cols``, ``vals``
and the CSR row pointer ``indptr`` — unchecked; callers reach it
through :class:`~repro.exec.plan.ExecutionPlan`, behind
``validate()``/the guard.

:func:`spmv` and :func:`spmm` are shard-scoped: they accumulate rows
``[lo, hi)`` into a caller-owned output that already holds ``y`` (or
zeros), and the plan guarantees ``lo < hi`` and disjoint rows across
shards.  :func:`get_backend` and :func:`prepare` hand the module and
the plan's row pointer out, for callers that time the bare kernel.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Optional, Tuple

import numpy as np
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec, csr_matvecs

#: A row sort's result: the plan's ``(cols, vals, indptr)``.
SortedRows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def get_backend(name: str) -> ModuleType:
    """The kernel module for ``"csr"``; ``KeyError`` for any other name."""
    if name != "csr":
        raise KeyError(
            f"unknown execution backend {name!r}; the one kernel is "
            "'csr'"
        )
    return sys.modules[__name__]


def prepare(plan: Any) -> np.ndarray:
    """The kernel's per-plan state: ``plan.indptr`` itself, no copy."""
    return plan.indptr


def spmv(plan: Any, indptr: np.ndarray, x: np.ndarray,
         out: np.ndarray, lo: int, hi: int) -> None:
    """Accumulate rows ``[lo, hi)`` of ``A @ x`` into ``out``."""
    csr_matvec(
        hi - lo, plan.shape[1], indptr[lo:], plan.cols, plan.vals,
        x, out[lo:hi],
    )


def spmm(plan: Any, indptr: np.ndarray, xb: np.ndarray,
         out: np.ndarray, j0: int, j1: int, lo: int, hi: int) -> None:
    """Accumulate rows ``[lo, hi)`` of ``A @ xb`` into ``out[:, j0:j1]``
    (``xb`` is columns ``[j0, j1)`` of X)."""
    view = out[lo:hi, j0:j1]
    # csr_matvecs needs a C-contiguous block; a column slice of out is
    # one only when the block spans every vector.
    block = (view if view.flags.c_contiguous
             else np.array(view, dtype=np.float64, order="C"))
    csr_matvecs(
        hi - lo, plan.shape[1], j1 - j0, indptr[lo:], plan.cols,
        plan.vals, xb.reshape(-1), block.reshape(-1),
    )
    if block is not view:
        view[...] = block


def plan_diagonal(plan: Any) -> np.ndarray:
    """The matrix diagonal of a plan (Jacobi preconditioning)."""
    n = min(plan.shape)
    rows = np.repeat(np.arange(plan.shape[0]), np.diff(plan.indptr))
    on_diag = rows == plan.cols
    return np.bincount(
        rows[on_diag],
        weights=plan.vals[on_diag],
        minlength=n,
    )[:n]


def counting_sort_rows(
    shape: Tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    index_dt: np.dtype,
) -> Optional[SortedRows]:
    """Stable row sort of a slot stream via ``coo_tocsr``; None if
    any row falls outside ``[0, nrows)``.

    One O(n_slots + nrows) C pass that emits the permuted cols/vals
    and the CSR row pointer directly — it walks the input in order,
    so ties keep stream order exactly like
    ``np.argsort(kind="stable")`` and the plan is bitwise identical to
    :func:`stable_sort_rows`'.  ``coo_tocsr`` scatters through the row
    pointer UNCHECKED, so a corrupted stream being recompiled (as the
    fault campaign does) is declined here and sorted by
    :func:`stable_sort_rows`, whose plan ``validate()`` refuses.
    """
    n_slots = int(rows.size)
    # Two sequential reductions: negligible next to the sort.
    if n_slots and (int(rows.min()) < 0 or int(rows.max()) >= shape[0]):
        return None
    src_rows = np.ascontiguousarray(rows, dtype=index_dt)
    src_cols = np.ascontiguousarray(cols, dtype=index_dt)
    src_vals = np.ascontiguousarray(vals, dtype=np.float64)
    # coo_tocsr fully initializes the row pointer (SciPy's own tocsr
    # passes np.empty here too).
    indptr = np.empty(shape[0] + 1, dtype=index_dt)
    out_cols = np.empty(n_slots, dtype=index_dt)
    out_vals = np.empty(n_slots, dtype=np.float64)
    coo_tocsr(
        shape[0], shape[1], n_slots,
        src_rows, src_cols, src_vals,
        indptr, out_cols, out_vals,
    )
    return out_cols, out_vals, indptr


def stable_sort_rows(
    shape: Tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    index_dt: np.dtype,
) -> SortedRows:
    """The portable stable row sort, for any row values.

    A row outside ``[0, nrows)`` sorts before row 0 or after the last
    row, so it lies in no row's ``indptr`` range: ``indptr[0]`` counts
    the rows below 0 and ``n_slots - indptr[-1]`` those at or past
    ``nrows``, and the plan contract's ``coverage`` rule refuses the
    plan.  The kernel never reads such a slot.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    return (
        np.ascontiguousarray(cols[order], dtype=index_dt),
        np.ascontiguousarray(vals[order], dtype=np.float64),
        np.ascontiguousarray(indptr, dtype=index_dt),
    )
