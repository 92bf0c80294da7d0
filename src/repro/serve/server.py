"""The long-lived SpMV query engine.

:class:`SpmvServer` composes the serving stack: a
:class:`~repro.serve.registry.PlanRegistry` of hot plans, an
:class:`~repro.serve.admission.AdmissionController` at the door, and
a pool of plain worker threads executing through each matrix's
:class:`~repro.resilience.guard.ExecutionGuard`.  The guarded plan
path is the only path: there is no run-time mode switch, and
overload is met by admission shedding and deadlines.

Correctness contract
--------------------
Every result returned with status ``ok`` went through the guarded
engine (plan validation, sampled oracle, verified naive fallback) —
the server never returns an unverified result.  A request whose
deadline expires before its result is ready is **shed** (status
``shed``, reason ``deadline``), never answered late with data the
caller can no longer trust the provenance of; a fault the guard
cannot recover from within the deadline surfaces as status
``failed`` with the detection detail.  Every request a worker takes
is resolved, whatever goes wrong while it executes.

Batching
--------
Workers coalesce up to :data:`MAX_BATCH` queued same-plan requests
and execute them as one
:meth:`~repro.resilience.guard.ExecutionGuard.spmv_batch` call, which
is bitwise identical to per-request execution — batching changes
throughput, never an answer.  Per-entry execution is
serialized (kernels parallelize internally across shards); worker
concurrency comes from running *different* plans side by side.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.resilience.guard import IntegrityError
from repro.serve.admission import (
    SHED_DEADLINE,
    AdmissionConfig,
    AdmissionController,
    RequestShed,
)
from repro.serve.deadline import Deadline
from repro.serve.registry import PlanRegistry, UnknownMatrixError

from concurrent.futures import Future

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"

#: Most same-plan requests one worker coalesces into a single
#: ``spmv_batch`` call.  It stays because it measures: on perfbench's
#: serve workload 32 beats a window of 1 on both qps and p50
#: (``docs/SERVE.md``).
MAX_BATCH = 32


@dataclasses.dataclass
class ServeRequest:
    """One admitted (or about-to-be-admitted) query."""

    rid: int
    plan: str
    x: np.ndarray
    deadline: Optional[Deadline]
    tenant: str
    future: Any
    t_submit: float


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """The outcome of one query."""

    rid: int
    plan: str
    tenant: str
    #: ``ok`` / ``shed`` / ``failed``.
    status: str
    y: Optional[np.ndarray]
    #: Shed reason or failure detail; empty on ``ok``.
    detail: str
    #: Number of requests coalesced into the executing batch.
    batched: int
    latency_s: float
    #: Always ``"tuned"``: the server has one path.  Kept because
    #: perfbench counts it (``serve.top_rung_frac``) until its next
    #: benchmark revision.
    level: str = "tuned"

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class SpmvServer:
    """Admission → registry → guarded execution.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.PlanRegistry` to serve from
        (matrices are registered on it, before or after start).
    admission:
        :class:`~repro.serve.admission.AdmissionConfig` bounds.
    workers:
        Worker thread count.  Per-plan execution is serialized, so
        more workers than concurrently-queried matrices buys nothing.
    """

    def __init__(self, registry: PlanRegistry,
                 admission: Optional[AdmissionConfig] = None,
                 workers: int = 2):
        self.registry = registry
        self.log = registry.log
        self.admission = AdmissionController(admission)
        self.n_workers = max(1, int(workers))
        self._threads: List[threading.Thread] = []
        self._running = False
        self._lock = threading.Lock()
        self._rid = 0
        self._exec_locks: Dict[str, threading.Lock] = {}
        self.completed: Dict[str, int] = {
            STATUS_OK: 0, STATUS_SHED: 0, STATUS_FAILED: 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SpmvServer":
        """Warm the registry and spawn the worker pool."""
        with self._lock:
            if self._running:
                return self
            self._running = True
        self.registry.warmup()
        for idx in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"spmv-serve-{idx}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop admitting, drain the queue, join the workers."""
        with self._lock:
            self._running = False
        self.admission.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "SpmvServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- client surface -------------------------------------------------

    def submit(self, plan: str, x: np.ndarray,
               deadline: Optional[Deadline] = None,
               tenant: str = "") -> Any:
        """Enqueue one query; returns a ``Future[ServeResponse]``.

        A request refused admission resolves its future immediately
        with a ``shed`` response — ``submit`` itself never raises for
        load reasons.
        """
        with self._lock:
            self._rid += 1
            rid = self._rid
        request = ServeRequest(
            rid=rid, plan=str(plan), x=np.asarray(x),
            deadline=deadline, tenant=str(tenant),
            future=Future(), t_submit=time.monotonic(),
        )
        try:
            self.admission.submit(request)
        except RequestShed as shed:
            self._resolve(request, STATUS_SHED, None,
                          detail=f"{shed.reason}: {shed.detail}",
                          batched=0)
        return request.future

    def query(self, plan: str, x: np.ndarray,
              deadline: Optional[Deadline] = None,
              tenant: str = "") -> ServeResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(plan, x, deadline=deadline,
                           tenant=tenant).result()

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot across the whole serving stack."""
        with self._lock:
            completed = dict(self.completed)
        return {
            "running": self._running,
            "workers": self.n_workers,
            "completed": completed,
            "registry": self.registry.stats(),
            "admission": self.admission.stats(),
            "resilience": self.log.counts(),
        }

    def health(self) -> Dict[str, Any]:
        """Terse liveness view: running, queue depth, hot bytes."""
        return {
            "running": self._running,
            "queued": self.admission.depth(),
            "pressure": round(self.admission.pressure(), 4),
            "hot_bytes": self.registry.hot_bytes(),
        }

    # -- worker side ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self.admission.take(timeout=0.05)
            if request is None:
                if not self._running:
                    return
                continue
            batch = [request]
            try:
                batch += self.admission.drain_matching(
                    request.plan, MAX_BATCH - 1
                )
                self._execute_batch(batch)
            except Exception as exc:  # noqa: BLE001 - worker firewall
                # A worker must never die with futures pending; an
                # unanticipated error fails the batch explicitly.
                for req in batch:
                    if not req.future.done():
                        self._resolve(
                            req, STATUS_FAILED, None,
                            detail=f"worker error: "
                                   f"{type(exc).__name__}: {exc}",
                            batched=len(batch),
                        )

    def _execute_batch(self, batch: List[ServeRequest]) -> None:
        live = []
        for req in batch:
            if req.deadline is not None and req.deadline.expired:
                self._shed_deadline(req, "expired while queued", 0)
            else:
                live.append(req)
        if not live:
            return
        name = live[0].plan
        try:
            lease = self.registry.acquire(name)
        except (UnknownMatrixError, IntegrityError) as exc:
            for req in live:
                self._resolve(req, STATUS_FAILED, None,
                              detail=str(exc), batched=len(live))
            return
        try:
            self._run_lease(lease, live)
        finally:
            self.registry.release(lease)

    def _run_lease(self, lease: Any, live: List[ServeRequest]) -> None:
        deadline = self._tightest_deadline(live)
        try:
            with self._exec_lock(live[0].plan):
                ys = self._run_guarded(lease, live, deadline)
        except IntegrityError as exc:
            for req in live:
                self._resolve(req, STATUS_FAILED, None,
                              detail=f"integrity: {exc}",
                              batched=len(live))
            return
        # Results are verified, but a request whose deadline lapsed
        # during execution is shed rather than answered late.
        for req, y in zip(live, ys):
            if req.deadline is not None and req.deadline.expired:
                self._shed_deadline(req, "result ready after deadline",
                                    len(live))
            else:
                self._resolve(req, STATUS_OK, y, detail="",
                              batched=len(live))

    @staticmethod
    def _run_guarded(lease: Any, live: List[ServeRequest],
                     deadline: Optional[Deadline]) -> List[np.ndarray]:
        """Dispatch through the guard on the plan's auto shard count."""
        guard = lease.guard
        if len(live) == 1:
            return [guard.spmv(live[0].x, deadline=deadline)]
        xs = np.stack([req.x for req in live])
        ys = guard.spmv_batch(xs, deadline=deadline)
        return [ys[i] for i in range(len(live))]

    # -- helpers --------------------------------------------------------

    def _shed_deadline(self, request: ServeRequest, why: str,
                       batched: int) -> None:
        """Shed a taken request whose deadline lapsed, counted once."""
        self.admission.count_shed(SHED_DEADLINE)
        self._resolve(request, STATUS_SHED, None,
                      detail=f"{SHED_DEADLINE}: {why}", batched=batched)

    @staticmethod
    def _tightest_deadline(live: List[ServeRequest]
                           ) -> Optional[Deadline]:
        tightest: Optional[Deadline] = None
        for req in live:
            if req.deadline is None:
                continue
            if (tightest is None
                    or req.deadline.remaining() < tightest.remaining()):
                tightest = req.deadline
        return tightest

    def _exec_lock(self, name: str) -> threading.Lock:
        with self._lock:
            lock = self._exec_locks.get(name)
            if lock is None:
                lock = self._exec_locks[name] = threading.Lock()
            return lock

    def _resolve(self, request: ServeRequest, status: str,
                 y: Optional[np.ndarray], detail: str,
                 batched: int) -> None:
        response = ServeResponse(
            rid=request.rid, plan=request.plan, tenant=request.tenant,
            status=status, y=y, detail=detail, batched=batched,
            latency_s=time.monotonic() - request.t_submit,
        )
        with self._lock:
            self.completed[status] = self.completed.get(status, 0) + 1
        request.future.set_result(response)


def serve_matrices(matrices: Dict[str, Any],
                   byte_budget: Optional[int] = None,
                   admission: Optional[AdmissionConfig] = None,
                   workers: int = 2, seed: int = 0,
                   start: bool = True) -> SpmvServer:
    """Build a server over named COO matrices (the one-call setup).

    ``matrices`` maps registry names to
    :class:`~repro.core.io.COOMatrix` instances; each is compiled
    through the pipeline, and the server is started unless
    ``start=False``.
    """
    registry = PlanRegistry(byte_budget=byte_budget, seed=seed)
    for name, coo in matrices.items():
        registry.register(name, coo=coo)
    server = SpmvServer(registry, admission=admission, workers=workers)
    return server.start() if start else server
