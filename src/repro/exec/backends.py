"""The one SpMV kernel: scipy's compiled CSR routines over a plan.

scipy's ``csr_matvec``/``csr_matvecs`` accumulate each output row
sequentially, left to right — the order of ``spmv_naive`` — and take
int32 or int64 index arrays natively, so every plan layout runs through
them bitwise equal to the naive engine.  scipy is a hard dependency:
importing this module (and so :mod:`repro.exec`) without it raises
``ImportError``; there is no slower fallback to drift out of test.

This module is the **only** place allowed to touch
``scipy.sparse._sparsetools`` (machine-enforced by the
``exec.raw-kernel`` self-lint) and holds the plan's numpy kernel math
(the ``exec.plan-kernel`` self-lint keeps it out of ``plan.py``).  The
kernel reads the plan arrays unchecked; callers reach it through
:class:`~repro.exec.plan.ExecutionPlan`, behind ``validate()``/the
guard.

:func:`prepare` derives the kernel's one piece of per-plan state, the
dense CSR row pointer; :func:`spmv` and :func:`spmm` are shard-scoped:
they reduce segments ``[lo, hi)`` into a caller-owned, zeroed output,
and the plan guarantees ``lo < hi`` and disjoint rows across shards.
:func:`get_backend` hands this module out by name, for callers that
time the bare kernel.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Optional, Tuple

import numpy as np
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec, csr_matvecs


def get_backend(name: str) -> ModuleType:
    """The kernel module for ``"csr"``; ``KeyError`` for any other name."""
    if name != "csr":
        raise KeyError(
            f"unknown execution backend {name!r}; the one kernel is "
            "'csr'"
        )
    return sys.modules[__name__]


def segment_counts(plan: Any) -> np.ndarray:
    """Slot count of each segment (output row) of a plan."""
    return np.diff(np.append(plan.seg_starts, plan.vals.size))


def shard_row_range(plan: Any, lo: int, hi: int) -> Tuple[int, int]:
    """The half-open output-row range of segments ``[lo, hi)``."""
    return int(plan.seg_rows[lo]), int(plan.seg_rows[hi - 1]) + 1


def prepare(plan: Any) -> np.ndarray:
    """The plan's dense CSR row pointer, in the plan's index dtype.

    One dtype across ``indptr``/``cols`` keeps scipy from converting
    the index arrays on every call.
    """
    indptr = np.zeros(plan.shape[0] + 1, dtype=plan.cols.dtype)
    indptr[plan.seg_rows.astype(np.intp) + 1] = segment_counts(plan)
    np.cumsum(indptr, out=indptr)
    return indptr


def spmv(plan: Any, indptr: np.ndarray, x: np.ndarray,
         out: np.ndarray, lo: int, hi: int) -> None:
    """Reduce segments ``[lo, hi)`` of ``y = A @ x`` into ``out``."""
    r0, r1 = shard_row_range(plan, lo, hi)
    csr_matvec(
        r1 - r0, plan.shape[1], indptr[r0:], plan.cols, plan.vals,
        x, out[r0:r1],
    )


def spmm(plan: Any, indptr: np.ndarray, xb: np.ndarray,
         out: np.ndarray, j0: int, j1: int, lo: int, hi: int) -> None:
    """Reduce one vector block ``xb`` (columns ``[j0, j1)`` of X) for
    segments ``[lo, hi)`` into ``out[:, j0:j1]``."""
    nb = j1 - j0
    r0, r1 = shard_row_range(plan, lo, hi)
    block = np.zeros((r1 - r0, nb), dtype=np.float64)
    csr_matvecs(
        r1 - r0, plan.shape[1], nb, indptr[r0:], plan.cols, plan.vals,
        xb.reshape(-1), block.reshape(-1),
    )
    out[r0:r1, j0:j1] = block


def plan_diagonal(plan: Any) -> np.ndarray:
    """The matrix diagonal of a plan (Jacobi preconditioning)."""
    n = min(plan.shape)
    rows = np.repeat(plan.seg_rows.astype(np.intp), segment_counts(plan))
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
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Stable row sort of a slot stream via ``coo_tocsr``; None if
    ineligible.

    One O(n_slots + nrows) C pass that emits the permuted cols/vals
    and the segment pointers directly — it walks the input in order,
    so ties keep stream order exactly like
    ``np.argsort(kind="stable")`` and the resulting plan is bitwise
    identical to the portable path.  Returns
    ``(cols, vals, seg_starts, seg_rows)``.

    Ineligible — returning ``None`` so the caller takes the portable
    argsort — when the stream is empty, the shape is pathologically
    tall for the dense O(nrows) row pointer, or any row is out of
    range: ``coo_tocsr`` scatters through the row pointer UNCHECKED,
    and a corrupted stream being recompiled (as the fault campaign
    does) must reach ``validate()``, not write out of bounds.
    """
    n_slots = int(rows.size)
    if n_slots == 0 or shape[0] > 8 * n_slots + 1024:
        return None
    # Two sequential reductions: negligible next to the sort.
    rmin = int(rows.min())
    rmax = int(rows.max())
    if rmin < 0 or rmax >= shape[0]:
        return None
    src_rows = np.ascontiguousarray(rows, dtype=index_dt)
    src_cols = np.ascontiguousarray(cols, dtype=index_dt)
    src_vals = np.ascontiguousarray(vals, dtype=np.float64)
    # coo_tocsr fully initializes the row pointer (SciPy's own tocsr
    # passes np.empty here too).
    indptr = np.empty(shape[0] + 1, dtype=index_dt)
    out_cols = np.empty(n_slots, dtype=index_dt)
    sorted_vals = np.empty(n_slots, dtype=np.float64)
    coo_tocsr(
        shape[0], shape[1], n_slots,
        src_rows, src_cols, src_vals,
        indptr, out_cols, sorted_vals,
    )
    nz_rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    seg_rows = np.ascontiguousarray(nz_rows, dtype=index_dt)
    seg_starts = np.ascontiguousarray(indptr[nz_rows], dtype=index_dt)
    return out_cols, sorted_vals, seg_starts, seg_rows
