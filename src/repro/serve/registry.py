"""Hot-plan registry: many matrices resident, bounded bytes.

The serving layer keeps one :class:`PlanEntry` per registered matrix.
An entry is *hot* when its compiled :class:`~repro.exec.plan.ExecutionPlan`
and :class:`~repro.resilience.guard.ExecutionGuard` are resident, and
*cold* when only the encoded stream remains — warming a cold entry
rebuilds the plan from the stream, not a recompile.

Hot bytes are bounded by ``byte_budget``: acquiring a plan that would
blow the budget evicts the least-recently-used hot entries first.
Eviction is safe while requests are executing — an entry with leases
outstanding (``in_flight > 0``) is never evicted, and a
:class:`Lease` snapshots the stream/guard handles under the registry
lock so a concurrent evict-or-replace can never yank state mid-call.
Every eviction is counted and logged as a structured
:class:`~repro.resilience.guard.ResilienceEvent` on the shared log.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, List, Optional

from repro.resilience.guard import (
    ExecutionGuard,
    GuardConfig,
    ResilienceEvent,
    ResilienceLog,
)

#: Guard knobs of the serving layer: plans are validated on (re)warm
#: and the sampled oracle runs frequently enough that a corrupted plan
#: is confronted within a handful of requests, while the clean path
#: stays cheap.  ``backoff_s`` is non-zero so retry loops are real
#: (and therefore must be deadline-clipped).
SERVE_GUARD = GuardConfig(
    validate_plan=True,
    check_interval=4,
    check_rows=4,
    max_attempts=2,
    backoff_s=0.001,
    max_retry_wall_s=5.0,
)


class UnknownMatrixError(KeyError):
    """A query named a matrix nobody registered."""


class PlanEntry:
    """One registered matrix and its serving state.

    Mutable fields are guarded by the owning registry's lock; request
    workers never touch an entry directly — they hold a
    :class:`Lease`.
    """

    def __init__(self, name: str, spasm: Any):
        self.name = name
        self.spasm = spasm
        self.guard: Optional[ExecutionGuard] = None
        self.hot = False
        self.plan_nbytes = 0
        self.in_flight = 0
        self.last_tick = 0
        self.hits = 0
        self.warms = 0
        self.evictions = 0

    def describe(self) -> Dict[str, Any]:
        """JSON-ready snapshot for health/stats endpoints."""
        return {
            "name": self.name,
            "shape": list(self.spasm.shape),
            "nnz": int(self.spasm.source_nnz),
            "hot": self.hot,
            "plan_bytes": int(self.plan_nbytes),
            "in_flight": int(self.in_flight),
            "hits": int(self.hits),
            "warms": int(self.warms),
            "evictions": int(self.evictions),
        }


@dataclasses.dataclass(frozen=True)
class Lease:
    """A consistent snapshot of one entry's execution handles.

    Taken under the registry lock at :meth:`PlanRegistry.acquire`
    time; the holder executes through :attr:`guard` (:attr:`spasm` is
    the stream that guard pinned) and must
    :meth:`PlanRegistry.release` when done.  Because the snapshot is
    immutable, a concurrent evict/replace of the entry can never
    leave the holder with half-swapped state.
    """

    entry: PlanEntry
    spasm: Any
    guard: ExecutionGuard


class PlanRegistry:
    """LRU-bounded collection of hot execution plans.

    Parameters
    ----------
    byte_budget:
        Cap on the summed ``plan.nbytes`` of hot entries; ``None`` is
        unbounded.  The budget is enforced on every acquire; entries
        with leases outstanding are exempt, so the registry can run
        transiently over budget rather than evict an executing plan.
    guard_config:
        :class:`~repro.resilience.guard.GuardConfig` for per-entry
        guards (default :data:`SERVE_GUARD`).
    log:
        Shared :class:`~repro.resilience.guard.ResilienceLog`; evict
        events and every guard incident land here.
    seed:
        Base seed; entry guards derive their oracle seeds from it.
    """

    def __init__(self, byte_budget: Optional[int] = None,
                 guard_config: Optional[GuardConfig] = None,
                 log: Optional[ResilienceLog] = None,
                 seed: int = 0):
        self.byte_budget = int(byte_budget) if byte_budget else None
        self.guard_config = guard_config or SERVE_GUARD
        self.log = log if log is not None else ResilienceLog()
        self.seed = int(seed)
        self._lock = threading.RLock()
        self._entries: Dict[str, PlanEntry] = {}
        self._tick = 0
        self._guard_seq = 0
        self.evicted_total = 0

    # -- registration ---------------------------------------------------

    def register(self, name: str, coo: Any = None,
                 spasm: Any = None, warm: bool = True) -> PlanEntry:
        """Register a matrix under ``name`` (idempotent per name).

        Pass either a COO matrix (compiled through
        :class:`~repro.core.framework.SpasmCompiler`) or a pre-encoded ``spasm`` stream.  ``warm=True``
        builds the plan and guard immediately; ``warm=False`` defers
        to the first acquire (cold registration).
        """
        if (coo is None) == (spasm is None):
            raise ValueError(
                "register() needs exactly one of coo= or spasm="
            )
        if coo is not None:
            from repro.core import SpasmCompiler

            spasm = SpasmCompiler().compile(coo).spasm
        with self._lock:
            entry = PlanEntry(name, spasm)
            self._entries[name] = entry
            if warm:
                self._warm(entry)
                self._enforce_budget()
        return entry

    def replace(self, name: str, spasm: Any) -> PlanEntry:
        """Swap the encoded stream behind ``name`` (heal/inject path).

        The fault campaign's ``server`` target uses this to heal a
        tenant it corrupted.
        Outstanding leases keep executing on their snapshot; new
        acquires see the new stream.
        """
        with self._lock:
            entry = self._entry(name)
            self._make_cold(entry)
            entry.spasm = spasm
            return entry

    def names(self) -> List[str]:
        """Registered matrix names, registration order."""
        with self._lock:
            return list(self._entries)

    def warmup(self) -> Dict[str, Any]:
        """Warm every cold entry (plans rebuilt from their streams).

        Returns a summary: names warmed, hot bytes.
        """
        warmed = []
        with self._lock:
            for entry in self._entries.values():
                if not entry.hot:
                    self._warm(entry)
                    warmed.append(entry.name)
            self._enforce_budget()
            return {
                "warmed": warmed,
                "hot_bytes": self.hot_bytes(),
            }

    # -- leases ---------------------------------------------------------

    def acquire(self, name: str) -> Lease:
        """A :class:`Lease` on a hot entry (warms it when cold).

        Raises :class:`UnknownMatrixError` for unregistered names.
        The lease pins the entry against eviction until
        :meth:`release`.
        """
        with self._lock:
            entry = self._entry(name)
            if not entry.hot:
                self._warm(entry)
            entry.in_flight += 1
            entry.hits += 1
            self._tick += 1
            entry.last_tick = self._tick
            self._enforce_budget()
            guard = entry.guard
            assert guard is not None  # _warm just ensured it
            return Lease(entry=entry, spasm=entry.spasm, guard=guard)

    def release(self, lease: Lease) -> None:
        """Return a lease; the entry becomes evictable again."""
        with self._lock:
            lease.entry.in_flight = max(0, lease.entry.in_flight - 1)

    # -- memory pressure ------------------------------------------------

    def hot_bytes(self) -> int:
        """Summed plan bytes of the currently hot entries."""
        with self._lock:
            return sum(
                e.plan_nbytes for e in self._entries.values() if e.hot
            )

    def evict(self, name: str) -> bool:
        """Explicitly evict one entry's plan; ``False`` when leased."""
        with self._lock:
            entry = self._entry(name)
            if entry.in_flight > 0:
                return False
            if entry.hot:
                self._evict(entry, "explicit evict")
            else:
                # Still drop any plan built outside the registry.
                self._make_cold(entry)
            return True

    def stats(self) -> Dict[str, Any]:
        """JSON-ready registry snapshot."""
        with self._lock:
            return {
                "entries": [
                    e.describe() for e in self._entries.values()
                ],
                "hot_bytes": self.hot_bytes(),
                "byte_budget": self.byte_budget,
                "evicted_total": int(self.evicted_total),
            }

    # -- internals ------------------------------------------------------

    def _entry(self, name: str) -> PlanEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownMatrixError(
                f"matrix {name!r} is not registered "
                f"(registered: {sorted(self._entries)})"
            ) from None

    def _warm(self, entry: PlanEntry) -> None:
        """Build the plan and guard for an entry.

        The guard pins the digest of the plan just built (the plan it
        finds cached on the matrix) rather than hashing the live stream
        again; the first answer still compares that pin with the live
        stream.
        """
        plan = entry.spasm.plan()
        entry.plan_nbytes = int(plan.nbytes)
        self._guard_seq += 1
        entry.guard = ExecutionGuard(
            entry.spasm, config=self.guard_config, log=self.log,
            seed=self.seed + self._guard_seq,
        )
        entry.hot = True
        entry.warms += 1

    def _make_cold(self, entry: PlanEntry) -> None:
        """Drop an entry's resident execution state."""
        entry.spasm._plan = None
        entry.guard = None
        entry.hot = False
        entry.plan_nbytes = 0

    def _enforce_budget(self) -> None:
        """Evict LRU hot entries until the byte budget holds.

        Entries with leases outstanding are skipped — the registry
        prefers running transiently over budget to evicting a plan
        mid-execution.  Caller holds the lock.
        """
        if self.byte_budget is None:
            return
        while True:
            hot = [
                e for e in self._entries.values() if e.hot
            ]
            total = sum(e.plan_nbytes for e in hot)
            if total <= self.byte_budget:
                return
            victims = sorted(
                (e for e in hot if e.in_flight == 0),
                key=lambda e: e.last_tick,
            )
            if not victims:
                self.log.record(ResilienceEvent(
                    kind="evict", surface="registry", action="none",
                    detail=(
                        f"over budget ({total} > {self.byte_budget} "
                        "bytes) but every hot plan is executing; "
                        "deferring eviction"
                    ),
                ))
                return
            self._evict(victims[0],
                        f"LRU, budget {self.byte_budget} bytes")

    def _evict(self, entry: PlanEntry, why: str) -> None:
        """Make an entry cold, count it and log one ``evict`` event."""
        self._make_cold(entry)
        entry.evictions += 1
        self.evicted_total += 1
        self.log.record(ResilienceEvent(
            kind="evict", surface="registry", action="evict",
            detail=f"evicted plan {entry.name!r} ({why})",
        ))
