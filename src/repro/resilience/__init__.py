"""Deterministic fault injection and guarded execution.

After the compiled-plan work (``repro.exec``) and the artifact cache
(``repro.pipeline.cache``), an SpMV answer can reach the caller through
three fast paths — a lazily cached in-memory plan, a persisted plan
artifact, and a sharded thread-pool dispatch — each of which could, in
principle, corrupt or lose results silently.  This package makes those
failure modes *injectable* and *survivable*:

* :mod:`repro.resilience.faults` — a seeded
  :class:`FaultInjector` that flips bits in SPASM streams, value
  arrays, plan arrays and packed memory images, corrupts artifact-cache
  entries on disk, and kills/stalls shard workers deterministically;
* :mod:`repro.resilience.guard` — :class:`ExecutionGuard`, a wrapper
  around plan execution that pins the stream digest, validates plan
  checksums before dispatch, cross-checks sampled rows against the
  naive oracle, retries with rebuild, and falls back to the naive
  engine, logging every incident as a :class:`ResilienceEvent`;
* :mod:`repro.resilience.campaign` — the one campaign runner: seeded
  faults fired either at single guarded calls (``guard`` target) or at
  a live :class:`~repro.serve.SpmvServer` under seeded mixed-tenant
  load (``server`` target), every answer audited bitwise and every
  injection required to prove it fired (an escape or an unfired
  injection fails the run), exposed as ``python -m repro faults``.

See ``docs/RESILIENCE.md`` for the fault taxonomy and guard semantics.
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultRecord,
    InjectedFault,
    InjectedWorkerFault,
    clone_spasm,
)
from repro.resilience.guard import (
    ExecutionGuard,
    GuardConfig,
    IntegrityError,
    ResilienceEvent,
    ResilienceLog,
    RowOracle,
    guarded_spmv,
)
from repro.resilience.campaign import (
    CAMPAIGN_GUARD,
    CAMPAIGN_PRESETS,
    render_report,
    run_campaign,
    write_report,
)

__all__ = [
    "FaultInjector",
    "FaultRecord",
    "InjectedFault",
    "InjectedWorkerFault",
    "clone_spasm",
    "ExecutionGuard",
    "GuardConfig",
    "IntegrityError",
    "ResilienceEvent",
    "ResilienceLog",
    "RowOracle",
    "guarded_spmv",
    "CAMPAIGN_GUARD",
    "CAMPAIGN_PRESETS",
    "render_report",
    "run_campaign",
    "write_report",
]
