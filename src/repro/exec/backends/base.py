"""The kernel-backend protocol of the execution layer.

An :class:`ExecutionBackend` owns the *math* of plan dispatch — the
gather/segment-reduce kernels — while
:class:`~repro.exec.plan.ExecutionPlan` keeps the data model, digests,
checksums, caching and shard orchestration.  The split mirrors the
driver lifecycle a device-resident plan needs (AlphaSparse-style
per-matrix kernels, Serpens-style buffer alloc/copy/execute): the plan
is the portable artifact, a backend is one way to execute it.

A backend declares what it can run (:meth:`capabilities`), derives an
opaque per-plan scratch state once (:meth:`prepare` — the software
analogue of a device upload), and exposes three shard-scoped entry
points (:meth:`spmv`, :meth:`spmm`, :meth:`spmv_batch`).  The plan's
dispatch wrappers own everything backend-independent: input
validation, shard grids, the thread pool and the fault hook — so every
backend inherits sharding, fault injection and the guard for free.

The non-negotiable contract (see ``docs/EXEC.md``): every backend
claiming float64 must reduce each output-row segment with sequential
left-to-right accumulation, so its results are **bitwise identical**
to the ``gather`` reference backend.  The cross-backend parity suite
and the benchmark gate enforce this for every registered backend.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: The operations a backend may claim, protocol order.
BACKEND_OPS = ("spmv", "spmm", "spmv_batch")


class BackendUnavailable(RuntimeError):
    """A backend was requested whose dependency is not importable."""


class BackendCapabilityError(ValueError):
    """A plan layout was dispatched to a backend that excludes it."""


@dataclasses.dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can execute, as declared dtype/op sets.

    ``index_dtypes``/``value_dtypes`` name the plan layouts the
    backend's kernels consume natively *with bitwise-exact float64
    semantics*; ``ops`` the entry points it implements.  Capability
    negotiation (:func:`~repro.exec.backends.registry.resolve_backend`)
    and the ``plan.backend`` rule of :mod:`repro.verify` both
    read this declaration — a kernel must never be reached by a layout
    outside it.
    """

    index_dtypes: Tuple[str, ...]
    value_dtypes: Tuple[str, ...]
    ops: Tuple[str, ...] = BACKEND_OPS

    def supports_layout(self, index_dtype: Any,
                        value_dtype: Any) -> bool:
        """Whether a (cols, vals) dtype pair is inside the declaration."""
        return (
            np.dtype(index_dtype).name in self.index_dtypes
            and np.dtype(value_dtype).name in self.value_dtypes
        )

    def supports(self, plan: Any, op: str = "spmv") -> bool:
        """Whether a plan's stored layout and the op are both claimed."""
        return op in self.ops and self.supports_layout(
            plan.cols.dtype, plan.vals.dtype
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (the ``backends --json`` CLI payload)."""
        return {
            "index_dtypes": list(self.index_dtypes),
            "value_dtypes": list(self.value_dtypes),
            "ops": list(self.ops),
        }


def segment_counts(plan: Any) -> np.ndarray:
    """Slot count of each segment (shared backend-prepare helper)."""
    return np.diff(np.append(plan.seg_starts, plan.vals.size))


def shard_slot_range(plan: Any, lo: int, hi: int) -> Tuple[int, int]:
    """The half-open slot range backing segments ``[lo, hi)``."""
    s0 = int(plan.seg_starts[lo])
    s1 = (
        int(plan.seg_starts[hi])
        if hi < plan.seg_rows.size
        else int(plan.vals.size)
    )
    return s0, s1


def shard_row_range(plan: Any, lo: int, hi: int) -> Tuple[int, int]:
    """The half-open output-row range of segments ``[lo, hi)``."""
    return int(plan.seg_rows[lo]), int(plan.seg_rows[hi - 1]) + 1


class ExecutionBackend(abc.ABC):
    """One way to execute a compiled plan (the kernel protocol).

    Subclasses set :attr:`name` (the registry key) and
    :attr:`priority` (negotiation rank: the highest-priority available
    backend whose :meth:`capabilities` cover a plan wins ``auto``
    resolution), and implement the kernel entry points.  All three
    entry points are *shard-scoped*: they reduce segments ``[lo, hi)``
    of the plan into the caller-owned output buffer, and the plan's
    dispatch layer guarantees ``lo < hi``, disjoint row ranges across
    concurrent shards, and a zero-initialized output.
    """

    #: Registry key and the name events/traces/CLI output use.
    name: str = ""
    #: Negotiation rank; higher wins when capabilities tie.
    priority: int = 0

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """The dtype/op envelope this backend's kernels claim."""

    def requires(self) -> Optional[str]:
        """Human description of a missing dependency, or ``None``.

        ``None`` means the backend is importable and dispatchable right
        now; a string names what to install (shown by
        ``python -m repro backends``).
        """
        return None

    def is_available(self) -> bool:
        """Whether the backend can be dispatched in this process."""
        return self.requires() is None

    def supports(self, plan: Any, op: str = "spmv") -> bool:
        """Whether this backend can execute ``op`` on ``plan``."""
        return self.capabilities().supports(plan, op)

    @abc.abstractmethod
    def prepare(self, plan: Any) -> Any:
        """Derive the backend's per-plan scratch state (device upload).

        Called once per (plan, backend) pair — the plan memoizes the
        returned state — so kernels never pay per-call derivation.
        The state is opaque to the plan; :meth:`prepared_arrays`
        exposes its array surface to the fault injector.
        """

    @abc.abstractmethod
    def spmv(self, plan: Any, state: Any, x: np.ndarray,
             out: np.ndarray, lo: int, hi: int) -> None:
        """Reduce segments ``[lo, hi)`` of ``y = A @ x`` into ``out``."""

    @abc.abstractmethod
    def spmm(self, plan: Any, state: Any, xb: np.ndarray,
             out: np.ndarray, j0: int, j1: int, lo: int,
             hi: int) -> None:
        """Reduce one vector block ``xb`` (columns ``[j0, j1)`` of X)
        for segments ``[lo, hi)`` into ``out[:, j0:j1]``."""

    def spmv_batch(self, plan: Any, state: Any, xb: np.ndarray,
                   out: np.ndarray, j0: int, j1: int, lo: int,
                   hi: int) -> None:
        """Batched-query kernel; defaults to the SpMM reduction.

        The plan coalesces a query batch into blocked SpMM (one
        transpose on either side), so a backend only overrides this
        when it has a genuinely different batched kernel.
        """
        self.spmm(plan, state, xb, out, j0, j1, lo, hi)

    def prepared_arrays(self, state: Any) -> Dict[str, np.ndarray]:
        """The prepared state's array surface, for fault injection.

        Every array a kernel reads at dispatch time must be reachable
        here so byte-level fault campaigns can flip backend scratch
        (not just the checksummed plan arrays).
        """
        return {}

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"priority={self.priority} available={self.is_available()}>"
        )
