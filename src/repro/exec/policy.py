"""The plan contract: what makes an :class:`ExecutionPlan` safe to dispatch.

The compiled fast path trusts the plan arrays completely (scipy's
unchecked ``csr_matvec`` does no per-slot checks), so this module is
the single owner of that decision.  The build,
:meth:`ExecutionPlan.validate` (and through it the resilience guard)
and the ``plan.index_width``/``plan.coverage`` rules of
:mod:`repro.verify` all call into it.
:func:`plan_findings` checks four invariants, one rule each:

``index_width``
    One supported index dtype across ``cols``/``indptr`` whose
    certificate covers the plan's extent, and every gather index
    inside ``[0, ncols)``.
``coverage``
    The row pointer partitions the slot stream into the matrix's
    rows: ``nrows + 1`` entries, ``indptr[0] == 0``, non-decreasing,
    ``indptr[-1] == n_slots`` — so every slot is reduced into exactly
    one row and the kernel reads no slot past the arrays.
``values``
    A supported value dtype, one value per gather index, all finite.
``checksum``
    :func:`plan_checksum` still equals the build-time checksum.

Witnesses (``cols[i]``, ``indptr[i]``) are located only after a rule
found a violation; the clean path is a min/max, a ``diff`` or a sum
per array plus the checksum.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Index dtypes a plan may store (narrow whenever it fits).
INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

#: Value dtypes a plan may store: float64, the bitwise contract.
VALUE_DTYPES = (np.dtype(np.float64),)

#: The invariants of the plan contract, check order.
INVARIANTS = ("index_width", "coverage", "values", "checksum")

_INT32_MAX = int(np.iinfo(np.int32).max)


@dataclasses.dataclass(frozen=True)
class IndexWidthCertificate:
    """The symbolic outcome of the index-width proof.

    Pure arithmetic over extents — no arrays are touched — so
    certificates for ``_INT32_MAX``-adjacent synthetic plans cost
    nothing to derive.

    Attributes
    ----------
    dtype:
        The index dtype under certification (``"int32"``/``"int64"``).
    capacity:
        Largest value the dtype represents.
    extent:
        ``max(nrows, ncols, n_slots)`` — ``indptr`` holds offsets up
        to ``n_slots``, so the slot count competes with the shape.
    safe:
        Whether every derivable index fits the dtype.
    headroom:
        ``capacity - extent`` (negative exactly when unsafe).
    compact_sufficient:
        Whether int32 would already suffice (:func:`index_dtype_for`).
    """

    dtype: str
    capacity: int
    extent: int
    safe: bool
    headroom: int
    compact_sufficient: bool

    def bound(self) -> str:
        """Human rendering of the certified bound."""
        return (
            f"{self.dtype} layout certified for extents up to "
            f"{self.capacity} (plan extent {self.extent}, headroom "
            f"{self.headroom})"
        )


@functools.lru_cache(maxsize=None)
def _index_type(dtype: Any) -> Tuple[str, int]:
    # (name, capacity) of an integer dtype.  np.iinfo and dtype.name
    # cost microseconds per call, and validate() certifies every plan.
    dt = np.dtype(dtype)
    if dt.kind != "i":
        raise ValueError(f"not an index dtype: {dt}")
    return dt.name, int(np.iinfo(dt).max)


def certify_index_width(shape: Tuple[int, int], n_slots: int,
                        dtype: Any) -> IndexWidthCertificate:
    """Symbolically certify an index layout for the given extents.

    ``shape``/``n_slots`` describe the plan abstractly; no arrays are
    required, so boundary cases near ``2**31 - 1`` can be certified
    without allocating anything.  This is the one place the
    int32-extent rule lives.
    """
    name, capacity = _index_type(dtype)
    extent = max(int(shape[0]), int(shape[1]), int(n_slots))
    return IndexWidthCertificate(
        dtype=name,
        capacity=capacity,
        extent=extent,
        safe=extent <= capacity,
        headroom=capacity - extent,
        compact_sufficient=extent <= _INT32_MAX,
    )


def index_dtype_for(shape: Tuple[int, int], n_slots: int) -> np.dtype:
    """The narrowest supported index dtype able to address a plan.

    int32 whenever the certificate says the compact layout suffices
    (shape extents *and* the slot count fit), else int64.
    """
    cert = certify_index_width(shape, n_slots, INDEX_DTYPES[0])
    return INDEX_DTYPES[0] if cert.compact_sufficient else INDEX_DTYPES[1]


def check_layout(index: Any, shape: Tuple[int, int],
                 n_slots: int) -> np.dtype:
    """Resolve a requested index dtype, or raise.

    ``None`` picks the default, :func:`index_dtype_for`.  Raises
    :class:`ValueError` for a dtype outside :data:`INDEX_DTYPES` or
    one too narrow for the extents.  Values are always float64.
    """
    index_dt = (index_dtype_for(shape, n_slots) if index is None
                else np.dtype(index))
    if index_dt not in INDEX_DTYPES:
        raise ValueError(f"unsupported index dtype {index_dt}")
    if not certify_index_width(shape, n_slots, index_dt).safe:
        raise ValueError(
            f"{index_dt.name} indices cannot address a "
            f"{shape[0]}x{shape[1]} plan with {n_slots} slots"
        )
    return index_dt


def plan_checksum(cols: np.ndarray, vals: np.ndarray,
                  indptr: np.ndarray, shape: Tuple[int, int]) -> str:
    """SHA-256 over a plan's executable arrays *and their dtypes*.

    Computed once at build time and carried on the plan; re-computing
    it (the ``checksum`` invariant) catches any post-build corruption
    of the gather indices, values or row pointer.  The dtype tags
    make an int32 plan and an int64 plan of the same stream distinct:
    no array can be silently up- or down-cast without tripping
    validation.
    """
    h = hashlib.sha256()
    h.update(
        repr(
            (
                (int(shape[0]), int(shape[1])),
                (cols.dtype.str, vals.dtype.str, indptr.dtype.str),
            )
        ).encode()
    )
    for arr in (cols, vals, indptr):
        # Hash through the buffer protocol — same bytes as tobytes()
        # for a C-contiguous array, without materializing a copy.  The
        # checksum must hash each array in its own dtype.
        h.update(np.ascontiguousarray(arr).data)  # lint: allow(exec.implicit-dtype)
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violated invariant of the plan contract.

    ``invariant`` is one of :data:`INVARIANTS`; ``witness`` names the
    culprit (``"cols[17]"``, ``"indptr[3]"``, or ``"dtype"``/
    ``"shape"`` for a whole array) and ``value`` the offending entry.
    """

    invariant: str
    message: str
    witness: Optional[str] = None
    value: Any = None


def _index_width(plan: Any) -> Optional[Finding]:
    oid = "index_width"
    cols = plan.cols
    if cols.dtype not in INDEX_DTYPES:
        return Finding(oid, f"unsupported index dtype {cols.dtype.name}",
                       "dtype")
    if plan.indptr.dtype != cols.dtype:
        return Finding(
            oid,
            f"index arrays disagree on width: cols={cols.dtype.name}, "
            f"indptr={plan.indptr.dtype.name}",
            "dtype",
        )
    cert = certify_index_width(plan.shape, plan.n_slots, cols.dtype)
    if not cert.safe:
        return Finding(
            oid,
            f"{cert.dtype} cannot address this plan: extent "
            f"{cert.extent} exceeds capacity {cert.capacity}",
            "extent", cert.extent,
        )
    ncols = int(plan.shape[1])
    if cols.size and (int(cols.min()) < 0 or int(cols.max()) >= ncols):
        i = int(np.flatnonzero((cols < 0) | (cols >= ncols))[0])
        return Finding(
            oid,
            f"gather indices outside [0, {ncols}): the unchecked "
            "kernel would read out of bounds",
            f"cols[{i}]", int(cols[i]),
        )
    return None


def _coverage(plan: Any) -> Optional[Finding]:
    oid = "coverage"
    indptr = plan.indptr
    n_slots = plan.n_slots
    nrows = int(plan.shape[0])
    if indptr.shape != (nrows + 1,):
        return Finding(
            oid,
            f"row pointer of shape {indptr.shape}, expected "
            f"({nrows + 1},) for {nrows} rows",
            "shape",
        )
    if int(indptr[0]) != 0:
        return Finding(
            oid,
            f"row pointer starts at {int(indptr[0])}, expected 0: "
            "slots before it would never be reduced",
            "indptr[0]", int(indptr[0]),
        )
    if nrows > 1:
        steps = np.diff(indptr)
        if int(steps.min()) < 0:
            i = int(np.flatnonzero(steps < 0)[0]) + 1
            return Finding(
                oid,
                "row pointer decreases: rows overlap or run backwards",
                f"indptr[{i}]", int(indptr[i]),
            )
    if int(indptr[-1]) != n_slots:
        return Finding(
            oid,
            f"row pointer ends at {int(indptr[-1])}, expected the "
            f"{n_slots}-slot stream: slots would be skipped or read "
            "past the arrays",
            f"indptr[{nrows}]", int(indptr[-1]),
        )
    return None


def _values(plan: Any) -> Optional[Finding]:
    oid = "values"
    vals = plan.vals
    if vals.dtype not in VALUE_DTYPES:
        return Finding(oid, f"unsupported value dtype {vals.dtype.name}",
                       "dtype")
    if plan.cols.ndim != 1 or vals.shape != plan.cols.shape:
        return Finding(
            oid,
            f"cols/vals shape mismatch: {plan.cols.shape} vs "
            f"{vals.shape}",
            "shape",
        )
    # A non-finite entry makes the sum non-finite; a non-finite sum of
    # finite entries (overflow) finds no witness and passes.
    if vals.size and not np.isfinite(vals.sum()):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            i = int(bad[0])
            return Finding(oid, "non-finite plan values", f"vals[{i}]",
                           float(vals[i]))
    return None


def _checksum(plan: Any) -> Optional[Finding]:
    if plan.checksum and plan.checksum != plan_checksum(
        plan.cols, plan.vals, plan.indptr, plan.shape
    ):
        return Finding(
            "checksum",
            "plan checksum mismatch (arrays corrupted after build)",
        )
    return None


_RULES: Dict[str, Callable[[Any], Optional[Finding]]] = {
    "index_width": _index_width,
    "coverage": _coverage,
    "values": _values,
    "checksum": _checksum,
}


def plan_findings(plan: Any,
                  invariants: Sequence[str] = INVARIANTS,
                  ) -> List[Finding]:
    """Every violated invariant of ``plan``; empty means safe.

    Each rule reports its first violation only.  The ``checksum`` rule
    runs only when every structural rule passed (a structural finding
    already names a better culprit than the hash can).  ``invariants``
    restricts the check to a subset — each ``plan.*`` verifier rule
    asks for its own invariant alone.
    """
    findings: List[Finding] = []
    for name in invariants:
        if name == "checksum" and findings:
            break
        finding = _RULES[name](plan)
        if finding is not None:
            findings.append(finding)
    return findings
