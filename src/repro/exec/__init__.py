"""Compiled SpMV execution plans (software step ⑥ fast path).

The format's reference execution (:meth:`repro.core.format.SpasmMatrix`
``.spmv``) re-expands the stream into per-slot coordinates on every
call.  This package compiles a matrix-specific :class:`ExecutionPlan`
*once* — padding slots dropped, coordinates decoded for the kept
slots only, the stream sorted by output row into CSR (``cols``,
``vals`` and the row pointer ``indptr``), indices stored in the
narrowest dtype that fits — so every subsequent SpMV is one pass of
scipy's compiled CSR matvec over the plan arrays as stored, and a multi-RHS SpMM or ``spmv_batch`` reuses the same
plan with one ``csr_matvecs`` per vector block.

That routine is the one kernel (:mod:`repro.exec.backends`), for int32
and int64 index plans alike, bitwise equal to ``spmv_naive``.  scipy
is a hard dependency: importing this package without it raises
``ImportError``.

Plans are content-keyed (:func:`stream_digest`), cached lazily on the
matrix, and executable on a thread pool in deterministic row-block shards
(``plan.spmv(x, jobs=N)`` is bitwise identical for every ``N``).
What makes a plan safe to dispatch — the dtype tables, the int32
extent rule and the plan invariants — is decided in one place,
:mod:`repro.exec.policy`.
"""

from repro.exec.backends import get_backend
from repro.exec.plan import (
    ExecutionPlan,
    dispatch_overhead_s,
    set_shard_fault_hook,
    stream_digest,
)
from repro.exec.policy import index_dtype_for, plan_checksum

__all__ = [
    "ExecutionPlan",
    "dispatch_overhead_s",
    "get_backend",
    "index_dtype_for",
    "plan_checksum",
    "set_shard_fault_hook",
    "stream_digest",
]
