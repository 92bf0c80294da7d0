"""Seeded mixed-tenant load generation against a live server.

Tenants are weighted traffic classes: each names a registered matrix,
a deadline class and a small pool of seeded probe vectors.  Because
probes are deterministic per ``(seed, tenant)``, a caller can
precompute naive-reference answers for every probe and verify each
``ok`` response bitwise after the fact — the chaos campaign's
escape detector is exactly that check.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serve.deadline import Deadline
from repro.serve.server import STATUS_OK, ServeResponse, SpmvServer


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One traffic class."""

    name: str
    #: Registry name of the matrix this tenant queries.
    plan: str
    #: Relative share of generated traffic.
    weight: float = 1.0
    #: Per-request deadline; ``None`` = unbounded.
    deadline_ms: Optional[float] = None
    #: Distinct probe vectors in this tenant's pool.
    n_probes: int = 4


def make_probes(ncols: int, n_probes: int, seed: int) -> np.ndarray:
    """The deterministic ``(n_probes, ncols)`` probe pool."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_probes, ncols))


def tenant_probes(tenants: List[TenantSpec], ncols_of: Dict[str, int],
                  seed: int) -> Dict[str, np.ndarray]:
    """Probe pools for every tenant, keyed by tenant name.

    ``ncols_of`` maps plan names to their matrix's column count.  The
    per-tenant seed is derived from ``seed`` and the tenant's position
    so pools are independent but fully reproducible.
    """
    pools: Dict[str, np.ndarray] = {}
    for idx, tenant in enumerate(tenants):
        pools[tenant.name] = make_probes(
            ncols_of[tenant.plan], tenant.n_probes,
            seed + 1000 * (idx + 1),
        )
    return pools


@dataclasses.dataclass(frozen=True)
class LoadRecord:
    """One request's identity and outcome."""

    tenant: str
    plan: str
    probe: int
    response: ServeResponse


@dataclasses.dataclass
class LoadReport:
    """Everything one load run produced."""

    records: List[LoadRecord]
    wall_s: float

    def counts(self) -> Dict[str, int]:
        """Response tally by status."""
        out: Dict[str, int] = {}
        for record in self.records:
            status = record.response.status
            out[status] = out.get(status, 0) + 1
        return out

    def latencies_ms(self, status: str = STATUS_OK) -> np.ndarray:
        """Sorted latencies (ms) of responses with ``status``."""
        vals = [r.response.latency_s * 1e3 for r in self.records
                if r.response.status == status]
        return np.sort(np.asarray(vals, dtype=np.float64))

    def percentiles_ms(self) -> Dict[str, float]:
        """p50/p95/p99 of ``ok`` latencies in milliseconds."""
        lat = self.latencies_ms()
        if lat.size == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
        }

    def qps(self) -> float:
        """Sustained ``ok`` responses per second over the run."""
        done = sum(1 for r in self.records
                   if r.response.status == STATUS_OK)
        return done / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest of the run."""
        return {
            "requests": len(self.records),
            "counts": self.counts(),
            "qps": self.qps(),
            "latency_ms": self.percentiles_ms(),
            "wall_s": self.wall_s,
        }


def run_load(server: SpmvServer, tenants: List[TenantSpec],
             probes: Dict[str, np.ndarray], n_requests: int,
             seed: int = 0, pace_s: float = 0.0) -> LoadReport:
    """Fire ``n_requests`` of weighted mixed-tenant traffic.

    Requests are submitted open-loop (optionally paced) and all
    futures are then awaited, so queue pressure — and therefore
    admission shedding and batch coalescing — is real.  Fully seeded:
    the tenant sequence and probe choices reproduce bit-for-bit.
    """
    if not tenants:
        raise ValueError("run_load needs at least one tenant")
    rng = np.random.default_rng(seed)
    weights = np.asarray([t.weight for t in tenants], dtype=np.float64)
    weights = weights / weights.sum()
    pending: List[Any] = []
    t0 = time.monotonic()
    for _ in range(int(n_requests)):
        tenant = tenants[int(rng.choice(len(tenants), p=weights))]
        pool = probes[tenant.name]
        probe = int(rng.integers(pool.shape[0]))
        deadline = (Deadline.after_ms(tenant.deadline_ms)
                    if tenant.deadline_ms is not None else None)
        future = server.submit(tenant.plan, pool[probe],
                               deadline=deadline, tenant=tenant.name)
        pending.append((tenant, probe, future))
        if pace_s > 0:
            time.sleep(pace_s)
    records = [
        LoadRecord(tenant=tenant.name, plan=tenant.plan, probe=probe,
                   response=future.result())
        for tenant, probe, future in pending
    ]
    return LoadReport(records=records, wall_s=time.monotonic() - t0)
