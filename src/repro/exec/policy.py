"""The plan contract: what makes an :class:`ExecutionPlan` safe to dispatch.

The compiled fast path trusts the plan arrays completely (scipy's
unchecked ``csr_matvec`` and the gather kernels do no per-slot
checks), so this module is the single owner of that decision.  The
build, :meth:`ExecutionPlan.validate` (and through it the resilience
guard and the plan caches) and the ``index_width``/``coverage`` proof
obligations of :mod:`repro.analyze` all call into it.
:func:`plan_findings` checks four invariants, one rule each:

``index_width``
    One supported index dtype across ``cols``/``seg_starts``/
    ``seg_rows`` whose certificate covers the plan's extent, and every
    gather index inside ``[0, ncols)``.
``coverage``
    Segments partition the slot stream into non-empty runs over
    strictly increasing rows inside ``[0, nrows)``.
``values``
    A supported value dtype, one value per gather index, all finite.
``checksum``
    :func:`plan_checksum` still equals the build-time checksum.

Witnesses (``cols[i]``, ``seg_rows[i]``) are located only after a rule
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

#: Value dtypes a plan may store (float32 only behind explicit opt-in).
VALUE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

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
        ``max(nrows, ncols, n_slots)`` — ``seg_starts`` holds offsets
        up to ``n_slots``, so the slot count competes with the shape.
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


def check_layout(index: Any, value: Any, shape: Tuple[int, int],
                 n_slots: int) -> Tuple[np.dtype, np.dtype]:
    """Resolve a requested ``(index, value)`` layout, or raise.

    ``None`` picks the default: :func:`index_dtype_for` indices and
    float64 values.  Raises :class:`ValueError` for a dtype outside
    the policy tables or an index dtype too narrow for the extents.
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
    value_dt = (VALUE_DTYPES[1] if value is None else np.dtype(value))
    if value_dt not in VALUE_DTYPES:
        raise ValueError(f"unsupported value dtype {value_dt}")
    return index_dt, value_dt


def plan_checksum(cols: np.ndarray, vals: np.ndarray,
                  seg_starts: np.ndarray, seg_rows: np.ndarray,
                  shape: Tuple[int, int]) -> str:
    """SHA-256 over a plan's executable arrays *and their dtypes*.

    Computed once at build time and carried on the plan; re-computing
    it (the ``checksum`` invariant) catches any post-build corruption
    of the gather indices, values or segment pointers.  The dtype tags
    make an int32 plan and an int64 plan of the same stream distinct
    artifacts — a cache load can never silently up- or down-cast
    without tripping validation.
    """
    h = hashlib.sha256()
    h.update(
        repr(
            (
                (int(shape[0]), int(shape[1])),
                (cols.dtype.str, vals.dtype.str,
                 seg_starts.dtype.str, seg_rows.dtype.str),
            )
        ).encode()
    )
    for arr in (cols, vals, seg_starts, seg_rows):
        # Hash through the buffer protocol — same bytes as tobytes()
        # for a C-contiguous array, without materializing a copy.  The
        # checksum must hash each array in its own dtype.
        h.update(np.ascontiguousarray(arr).data)  # lint: allow(exec.implicit-dtype)
    return h.hexdigest()


@dataclasses.dataclass(frozen=True)
class Finding:
    """One violated invariant of the plan contract.

    ``invariant`` is one of :data:`INVARIANTS`; ``witness`` names the
    culprit (``"cols[17]"``, ``"seg_rows[3]"``, or ``"dtype"``/
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
    if plan.seg_starts.dtype != cols.dtype or (
        plan.seg_rows.dtype != cols.dtype
    ):
        return Finding(
            oid,
            f"index arrays disagree on width: cols={cols.dtype.name}, "
            f"seg_starts={plan.seg_starts.dtype.name}, "
            f"seg_rows={plan.seg_rows.dtype.name}",
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
            "gather would read out of bounds",
            f"cols[{i}]", int(cols[i]),
        )
    return None


def _coverage(plan: Any) -> Optional[Finding]:
    oid = "coverage"
    starts = plan.seg_starts
    rows = plan.seg_rows
    n_slots = plan.n_slots
    nrows = int(plan.shape[0])
    if starts.ndim != 1 or starts.shape != rows.shape:
        return Finding(
            oid,
            f"seg_starts/seg_rows shape mismatch: {starts.shape} vs "
            f"{rows.shape}",
            "shape",
        )
    n_segments = int(starts.size)
    if n_segments == 0:
        if n_slots:
            return Finding(
                oid,
                f"{n_slots} slots but no segments to reduce them",
                "seg_starts",
            )
        return None
    if int(starts[0]) != 0:
        return Finding(
            oid,
            f"first segment starts at {int(starts[0])}, expected 0: "
            "slots before it would never be reduced",
            "seg_starts[0]", int(starts[0]),
        )
    if n_segments > 1:
        steps = np.diff(starts)
        if int(steps.min()) <= 0:
            i = int(np.flatnonzero(steps <= 0)[0]) + 1
            return Finding(
                oid,
                "segment pointers not strictly increasing: segments "
                "overlap or run empty",
                f"seg_starts[{i}]", int(starts[i]),
            )
    if int(starts[-1]) >= n_slots:
        return Finding(
            oid,
            f"last segment starts at {int(starts[-1])}, past the "
            f"{n_slots}-slot stream (empty segment)",
            f"seg_starts[{n_segments - 1}]", int(starts[-1]),
        )
    if n_segments > 1:
        steps = np.diff(rows)
        if int(steps.min()) <= 0:
            i = int(np.flatnonzero(steps <= 0)[0]) + 1
            return Finding(
                oid,
                "segment rows not strictly increasing: a row would be "
                "written twice (or rows out of order)",
                f"seg_rows[{i}]", int(rows[i]),
            )
    if int(rows[0]) < 0 or int(rows[-1]) >= nrows:
        i = 0 if int(rows[0]) < 0 else n_segments - 1
        return Finding(
            oid, f"segment rows outside [0, {nrows})",
            f"seg_rows[{i}]", int(rows[i]),
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
        plan.cols, plan.vals, plan.seg_starts, plan.seg_rows, plan.shape
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
    restricts the check to a subset — the proof obligations ask for
    their own invariant alone.
    """
    findings: List[Finding] = []
    for name in invariants:
        if name == "checksum" and findings:
            break
        finding = _RULES[name](plan)
        if finding is not None:
            findings.append(finding)
    return findings
