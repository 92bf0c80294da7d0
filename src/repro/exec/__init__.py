"""Compiled SpMV execution plans (software step ⑥ fast path).

The format's reference execution (:meth:`repro.core.format.SpasmMatrix`
``.spmv``) re-expands the stream into per-slot coordinates on every
call.  This package compiles a matrix-specific :class:`ExecutionPlan`
*once* — padding slots dropped, coordinates decoded for the kept
slots only, the stream sorted by output row, segment boundaries
precomputed, arrays stored in the narrowest dtype that fits — so every
subsequent SpMV is a pure gather + a sequential segment reduction, and
a multi-RHS SpMM or ``spmv_batch`` reuses the same plan with one gather
per vector block.

Kernels live behind the pluggable backend registry
(:mod:`repro.exec.backends`): ``gather`` is the always-available
portable reference, ``csr`` promotes scipy's compiled compact-layout
fast path, ``numba`` JITs the reduction when numba is installed — all
bitwise identical on the float64 layouts they claim, negotiated per
plan by :func:`resolve_backend` or pinned with ``backend="name"`` on
every entry point.

Plans are content-keyed (:func:`stream_digest`), cached lazily on the
matrix, optionally persisted through the pipeline's artifact cache, and
executable on a thread pool in deterministic row-block shards
(``plan.spmv(x, jobs=N)`` is bitwise identical for every ``N``).
What makes a plan safe to dispatch — the dtype tables, the int32
extent rule and the plan invariants — is decided in one place,
:mod:`repro.exec.policy`.
"""

from repro.exec.backends import (
    BackendCapabilities,
    BackendCapabilityError,
    BackendUnavailable,
    ExecutionBackend,
    available_backends,
    csr_kernels_available,
    get_backend,
    numba_available,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)
from repro.exec.plan import (
    ExecutionPlan,
    PLAN_STAGE,
    dispatch_overhead_s,
    set_shard_fault_hook,
    stream_digest,
)
from repro.exec.policy import index_dtype_for, plan_checksum

__all__ = [
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendUnavailable",
    "ExecutionBackend",
    "ExecutionPlan",
    "PLAN_STAGE",
    "available_backends",
    "csr_kernels_available",
    "dispatch_overhead_s",
    "get_backend",
    "index_dtype_for",
    "numba_available",
    "plan_checksum",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_shard_fault_hook",
    "stream_digest",
    "unregister_backend",
]
