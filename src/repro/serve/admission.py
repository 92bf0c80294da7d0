"""Admission control: bounded queues, load shedding, fair dequeue.

The server never buffers unbounded work.  Each registered plan gets a
bounded FIFO; a global bound caps total queued requests across plans.
When either bound is hit — or a request arrives with its deadline
already spent — the request is *shed*: rejected at the door with a
structured reason, instead of being accepted and then timing out
deep inside the engine.  Workers dequeue round-robin across plans so
one hot tenant cannot starve the rest, and can drain additional
same-plan requests in one go to feed batched execution.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Any, Deque, Dict, List, Optional

#: Shed reasons, also the keys of the per-reason shed counters.
SHED_QUEUE_FULL = "queue_full"
SHED_OVERLOAD = "overload"
SHED_DEADLINE = "deadline"
SHED_CLOSED = "closed"


class RequestShed(RuntimeError):
    """A request was refused admission (or dropped before execution).

    ``reason`` is one of the ``SHED_*`` constants; the server maps it
    into the response status so callers can distinguish "try later"
    (overload) from "your deadline was hopeless" (deadline).
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Bounds of the admission layer."""

    #: Per-plan queue depth; the oldest bound to trip under a single
    #: hot tenant.
    max_queue_per_plan: int = 64
    #: Total queued requests across all plans; the overload bound.
    max_total: int = 256
    #: Refuse requests whose remaining deadline is below this floor —
    #: they cannot finish anyway, so shedding at the door is cheaper
    #: than cancelling mid-execution.
    min_deadline_s: float = 0.0


class AdmissionController:
    """Bounded multi-queue with round-robin dequeue.

    Queued items are duck-typed: they carry ``.plan`` (the registry
    name) and ``.deadline`` (a :class:`~repro.serve.deadline.Deadline`
    or ``None``).  Thread-safe; ``submit`` is called from caller
    threads, ``take``/``drain_matching`` from worker threads.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[Any]] = {}
        self._rr: Deque[str] = collections.deque()
        self._closed = False
        self.submitted = 0
        self.admitted = 0
        self.shed: Dict[str, int] = collections.Counter()

    # -- producer side --------------------------------------------------

    def submit(self, item: Any) -> None:
        """Admit ``item`` or raise :class:`RequestShed`."""
        with self._lock:
            self.submitted += 1
            if self._closed:
                self._shed_locked(SHED_CLOSED, "server is shutting down")
            deadline = getattr(item, "deadline", None)
            if deadline is not None:
                left = float(deadline.remaining())
                if left <= self.config.min_deadline_s:
                    self._shed_locked(
                        SHED_DEADLINE,
                        f"deadline leaves {left:.4f}s, below the "
                        f"{self.config.min_deadline_s:.4f}s admission "
                        "floor",
                    )
            total = sum(len(q) for q in self._queues.values())
            if total >= self.config.max_total:
                self._shed_locked(
                    SHED_OVERLOAD,
                    f"{total} requests queued across plans "
                    f"(max_total={self.config.max_total})",
                )
            queue = self._queues.get(item.plan)
            if queue is None:
                queue = self._queues[item.plan] = collections.deque()
            if len(queue) >= self.config.max_queue_per_plan:
                self._shed_locked(
                    SHED_QUEUE_FULL,
                    f"plan {item.plan!r} queue at "
                    f"{len(queue)} (max_queue_per_plan="
                    f"{self.config.max_queue_per_plan})",
                )
            queue.append(item)
            if item.plan not in self._rr:
                self._rr.append(item.plan)
            self.admitted += 1
            self._ready.notify()

    def _shed_locked(self, reason: str, detail: str) -> None:
        self.shed[reason] += 1
        raise RequestShed(reason, detail)

    def count_shed(self, reason: str) -> None:
        """Count one request shed after admission (a worker found its
        deadline spent), under the same lock as the door's sheds."""
        with self._lock:
            self.shed[reason] += 1

    # -- consumer side --------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Next request, round-robin across plans.

        Blocks up to ``timeout`` seconds; returns ``None`` on timeout
        or once the controller is closed and drained.
        """
        with self._lock:
            while True:
                item = self._pop_locked()
                if item is not None:
                    return item
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None

    def drain_matching(self, plan: str, limit: int) -> List[Any]:
        """Up to ``limit`` more queued requests for ``plan``.

        Feeds batch coalescing: a worker that just took a request for
        ``plan`` grabs its queued siblings so they execute as one
        :meth:`~repro.resilience.guard.ExecutionGuard.spmv_batch`
        call.
        """
        out: List[Any] = []
        with self._lock:
            queue = self._queues.get(plan)
            while queue and len(out) < limit:
                out.append(queue.popleft())
        return out

    def _pop_locked(self) -> Optional[Any]:
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(name)
            if queue:
                return queue.popleft()
        return None

    # -- lifecycle / observability --------------------------------------

    def close(self) -> None:
        """Stop admitting; wake blocked workers."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()

    def depth(self) -> int:
        """Total queued requests right now."""
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def pressure(self) -> float:
        """Queue occupancy in ``[0, 1+]`` against the global bound.

        An operator gauge (:meth:`SpmvServer.health`): 0 when idle,
        1.0 when the overload bound is about to shed.
        """
        if self.config.max_total <= 0:
            return 0.0
        return self.depth() / float(self.config.max_total)

    def stats(self) -> Dict[str, Any]:
        """JSON-ready admission counters."""
        with self._lock:
            return {
                "submitted": int(self.submitted),
                "admitted": int(self.admitted),
                "queued": sum(len(q) for q in self._queues.values()),
                "shed": {k: int(v) for k, v in sorted(self.shed.items())},
                "max_queue_per_plan": self.config.max_queue_per_plan,
                "max_total": self.config.max_total,
            }
