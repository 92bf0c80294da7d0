"""Graceful degradation under pressure: a ladder, not a cliff.

When queues back up, the server steps down a ladder of service
levels, trading per-request optimality for throughput headroom, one
rung at a time:

1. ``tuned``  — the guarded plan path on the plan's own auto
   dispatch, full batch window.
2. ``narrow`` — batch coalescing window shrunk so per-request latency
   (and deadline exposure) drops at the cost of peak throughput.
3. ``naive``  — the guarded plan path is bypassed for the naive
   reference kernel: slowest, but verified by construction and
   immune to plan/backend-state corruption — the rung of last resort
   during a fault storm.

Transitions are hysteretic: the ladder degrades the moment pressure
crosses ``degrade_at`` but climbs back only after ``hold`` consecutive
observations below ``restore_at``, so a sawtoothing queue does not
flap the service level.  Every transition is a structured
:class:`~repro.resilience.guard.ResilienceEvent` (kinds ``degrade`` /
``restore``).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, Optional, Tuple

from repro.resilience.guard import ResilienceEvent, ResilienceLog


@dataclasses.dataclass(frozen=True)
class ServiceLevel:
    """One rung of the ladder."""

    name: str
    #: Execute through the naive reference kernel instead of the
    #: guarded plan path.
    naive: bool
    #: Cap on requests coalesced into one batched execution.
    batch_window: int


#: The ladder, best service first.
LEVELS: Tuple[ServiceLevel, ...] = (
    # The top rung keeps the name "tuned": perfbench counts it by name.
    ServiceLevel("tuned", naive=False, batch_window=32),
    ServiceLevel("narrow", naive=False, batch_window=4),
    ServiceLevel("naive", naive=True, batch_window=1),
)


class DegradationLadder:
    """Hysteretic service-level controller driven by queue pressure.

    ``observe(pressure)`` is called by workers between requests with
    :meth:`~repro.serve.admission.AdmissionController.pressure`; it
    moves at most one rung per call.  Thread-safe.
    """

    def __init__(self, log: Optional[ResilienceLog] = None,
                 degrade_at: float = 0.75, restore_at: float = 0.25,
                 hold: int = 8):
        if not 0.0 <= restore_at <= degrade_at:
            raise ValueError(
                f"need 0 <= restore_at <= degrade_at, got "
                f"restore_at={restore_at} degrade_at={degrade_at}"
            )
        self.log = log if log is not None else ResilienceLog()
        self.degrade_at = float(degrade_at)
        self.restore_at = float(restore_at)
        self.hold = int(hold)
        self._lock = threading.Lock()
        self._level = 0
        self._calm = 0
        self.transitions = 0

    @property
    def level(self) -> ServiceLevel:
        """The current rung."""
        with self._lock:
            return LEVELS[self._level]

    def observe(self, pressure: float) -> ServiceLevel:
        """Feed one pressure sample; returns the (possibly new) rung."""
        with self._lock:
            if pressure >= self.degrade_at:
                self._calm = 0
                if self._level < len(LEVELS) - 1:
                    self._move(self._level + 1, pressure)
            elif pressure <= self.restore_at:
                self._calm += 1
                if self._level > 0 and self._calm >= self.hold:
                    self._calm = 0
                    self._move(self._level - 1, pressure)
            else:
                self._calm = 0
            return LEVELS[self._level]

    def force(self, name: str) -> ServiceLevel:
        """Jump directly to the named rung (operator override)."""
        for idx, lvl in enumerate(LEVELS):
            if lvl.name == name:
                with self._lock:
                    if idx != self._level:
                        self._move(idx, pressure=-1.0)
                    return LEVELS[self._level]
        raise ValueError(
            f"unknown service level {name!r} "
            f"(levels: {[lvl.name for lvl in LEVELS]})"
        )

    def _move(self, new: int, pressure: float) -> None:
        old_idx, self._level = self._level, new
        self.transitions += 1
        kind = "degrade" if new > old_idx else "restore"
        self.log.record(ResilienceEvent(
            kind=kind, surface="serve", action=LEVELS[new].name,
            detail=(
                f"service level {LEVELS[old_idx].name!r} -> "
                f"{LEVELS[new].name!r} at pressure {pressure:.2f}"
            ),
        ))

    def stats(self) -> Dict[str, Any]:
        """JSON-ready ladder snapshot."""
        with self._lock:
            lvl = LEVELS[self._level]
            return {
                "level": lvl.name,
                "level_index": self._level,
                "batch_window": lvl.batch_window,
                "naive": lvl.naive,
                "transitions": int(self.transitions),
                "degrade_at": self.degrade_at,
                "restore_at": self.restore_at,
            }
