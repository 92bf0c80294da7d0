"""Seeded fault-injection campaigns: one runner for every target.

A campaign builds pristine artifacts, fires seeded faults through
:class:`~repro.resilience.faults.FaultInjector` and audits every
answer bitwise against references computed from pristine clones
**before** any injection.  Each preset names its **target**:

``guard``
    One guarded call per injection: the fault hits a fresh clone of
    one workload and a single
    :class:`~repro.resilience.guard.ExecutionGuard` call answers (the
    static verifier answers for packed memory images).
``server``
    Waves of faults fired at a live :class:`~repro.serve.SpmvServer`
    between seeded mixed-tenant bursts — in-place stream/value/plan
    flips on a hot entry, corruption of the target plan's own cache
    entry followed by forced re-warms, shard-worker kills/stalls armed
    across a whole burst.  After each wave the hit tenant is healed by
    swapping a pristine clone into the registry, so waves stay
    independent.  The report also carries the clean phase and the
    chaos-phase latency percentiles ``benchmarks/bench_serve.py``
    reads.

Every answer is classified by :func:`classify`:

=============  =====================================================
``contained``  status ``ok`` and bitwise equal to a reference (plan
               path or naive) — served correctly through or around
               the fault.
``detected``   status ``failed`` — the fault was refused loudly (for
               the guard target, an
               :class:`~repro.resilience.guard.IntegrityError`).
``shed``       status ``shed`` — dropped by admission or deadline
               policy, no result returned.
``escaped``    status ``ok`` but **wrong** — a silently wrong answer.
=============  =====================================================

Every injection must also prove it **fired**: a data flip fired when
it returned a record, a cache fault when a quarantine of the corrupted
entry was logged, a worker fault when its shard invocation ran.  An
escape or an unfired injection fails the campaign —
``python -m repro faults`` exits nonzero and CI goes red.

The whole campaign is a pure function of ``seed``: the injector, the
input vectors, the tenant traffic and the guard row samplers all
derive from it, and injections run in a fixed order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple

import numpy as np

from repro.resilience.faults import FaultInjector, FaultRecord, clone_spasm
from repro.resilience.guard import (
    ExecutionGuard,
    GuardConfig,
    IntegrityError,
)

#: Guard knobs used under fire: the stream digest is re-pinned, the
#: plan revalidated and the sampled oracle run on *every* call, so an
#: injected fault is confronted by the very next call rather than
#: within a window.  Fallback stays on — containment through the naive
#: engine is a success mode.
CAMPAIGN_GUARD = GuardConfig(
    validate_plan=True,
    repin_interval=1,
    revalidate_interval=1,
    check_interval=1,
    check_rows=4,
    max_attempts=2,
    backoff_s=0.0005,
    max_retry_wall_s=2.0,
)

#: ``MIN_SHARD_SLOTS`` while a worker fault is armed.  Campaign
#: matrices never cross the production shard threshold, so without
#: lowering it the shard hook would never run and worker faults could
#: not fire.
STORM_SHARD_SLOTS = 1024

#: Campaign presets.  ``trials`` maps each surface to its injection
#: count (one guarded call each for the ``guard`` target, one wave of
#: ``burst_requests`` for the ``server`` target) and runs in order.
#: ``smoke``/``chaos-smoke`` keep CI fast; ``full``/``chaos-full``
#: widen every axis.
CAMPAIGN_PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "target": "guard",
        "workload": "tmt_sym",
        "scale": 1.0,
        "jobs": 2,
        "trials": {
            "stream": 10, "value": 10, "plan": 12,
            "worker": 8, "image": 6, "cache": 10,
        },
    },
    "full": {
        "target": "guard",
        "workload": "tmt_sym",
        "scale": 1.0,
        "jobs": 2,
        "trials": {
            "stream": 40, "value": 40, "plan": 50,
            "worker": 30, "image": 20, "cache": 40,
        },
    },
    "chaos-smoke": {
        "target": "server",
        "matrices": [("tmt_sym", 0.5), ("mip1", 0.3)],
        "tenants": [
            # (tenant, matrix index, weight, deadline_ms, n_probes)
            ("latency", 0, 2.0, 250.0, 3),
            ("batch", 1, 1.0, None, 3),
        ],
        "workers": 2,
        "max_queue_per_plan": 32,
        "max_total": 96,
        "clean_requests": 60,
        "burst_requests": 24,
        "trials": {
            "stream": 1, "value": 1, "plan": 1, "cache": 1, "worker": 1,
        },
    },
    "chaos-full": {
        "target": "server",
        "matrices": [("tmt_sym", 1.0), ("mip1", 0.5), ("rim", 0.5)],
        "tenants": [
            ("latency", 0, 2.0, 400.0, 4),
            ("batch", 1, 1.0, None, 4),
            ("bulk", 2, 1.0, 1000.0, 4),
        ],
        "workers": 3,
        "max_queue_per_plan": 48,
        "max_total": 160,
        "clean_requests": 200,
        "burst_requests": 60,
        "trials": {
            "stream": 3, "value": 3, "plan": 3, "cache": 3, "worker": 3,
        },
    },
}

OUTCOMES = ("contained", "detected", "shed", "escaped")

#: One answer to audit: ``(status, y, refs, where)``; ``where`` locates
#: the answer in an escape entry.
Answer = Tuple[str, Optional[np.ndarray], Sequence[np.ndarray],
               Dict[str, Any]]


def _preset(preset: Any) -> Tuple[str, Dict[str, Any]]:
    """``(name, spec)`` of a preset name or an explicit preset dict."""
    if isinstance(preset, dict):
        return str(preset.get("name", "custom")), preset
    try:
        return preset, CAMPAIGN_PRESETS[preset]
    except KeyError:
        raise KeyError(
            f"unknown campaign preset {preset!r}; "
            f"choose from {sorted(CAMPAIGN_PRESETS)}"
        ) from None


def classify(status: str, y: Optional[np.ndarray],
             refs: Sequence[np.ndarray]) -> str:
    """Outcome class of one answer (see the module table)."""
    if status == "shed":
        return "shed"
    if status == "failed":
        return "detected"
    if any(np.array_equal(y, ref) for ref in refs):
        return "contained"
    return "escaped"


def _audit(answers: Iterable[Answer],
           ) -> Tuple[Dict[str, int], List[Dict[str, Any]]]:
    """Per-outcome counts of some answers, plus where each escape was."""
    counts = dict.fromkeys(("requests",) + OUTCOMES, 0)
    escapes = []
    for status, y, refs, where in answers:
        outcome = classify(status, y, refs)
        counts["requests"] += 1
        counts[outcome] += 1
        if outcome == "escaped":
            escapes.append(where)
    return counts, escapes


def _injection(surface: str, record: Optional[FaultRecord],
               fired: bool, answers: Iterable[Answer],
               **extra: Any) -> Dict[str, Any]:
    """One injection's report row: fault, activation and outcomes."""
    counts, escapes = _audit(answers)
    return {
        "surface": surface,
        "fired": bool(fired),
        "fault": record.to_dict() if record is not None else None,
        **extra,
        **counts,
        "escapes": escapes,
    }


def _tally(injections: List[Dict[str, Any]],
           clean_escapes: Sequence[Dict[str, Any]] = (),
           ) -> Dict[str, Any]:
    """Per-surface and total counts, the escapes list and the verdict.

    Pops each injection's ``escapes`` into the campaign-wide list
    (tagged with the injection index); ``clean_escapes`` are wrong
    answers from a fault-free phase, which fail the campaign too.
    """
    keys = ("injections", "unfired", "requests") + OUTCOMES
    surfaces: Dict[str, Dict[str, int]] = {}
    escapes = [dict(where, surface="clean") for where in clean_escapes]
    for index, row in enumerate(injections):
        bucket = surfaces.setdefault(row["surface"],
                                     dict.fromkeys(keys, 0))
        bucket["injections"] += 1
        bucket["unfired"] += int(not row["fired"])
        for key in ("requests",) + OUTCOMES:
            bucket[key] += row[key]
        escapes.extend(
            dict(where, surface=row["surface"], injection=index)
            for where in row.pop("escapes")
        )
    unfired = sorted({row["surface"] for row in injections
                      if not row["fired"]})
    return {
        "surfaces": surfaces,
        "injections": injections,
        "totals": {key: sum(s[key] for s in surfaces.values())
                   for key in keys},
        "escapes": escapes,
        "unfired": unfired,
        "zero_escapes": not escapes,
        "passed": not escapes and not unfired,
    }


@contextlib.contextmanager
def _forced_shards() -> Iterator[None]:
    """Lower ``MIN_SHARD_SLOTS`` to :data:`STORM_SHARD_SLOTS` (restored
    on exit) so campaign-sized plans dispatch through the shard pool."""
    import repro.exec.plan as plan_mod

    saved = plan_mod.MIN_SHARD_SLOTS
    plan_mod.MIN_SHARD_SLOTS = STORM_SHARD_SLOTS
    try:
        yield
    finally:
        plan_mod.MIN_SHARD_SLOTS = saved


def _quarantine_spy(cache_dir: str) -> Tuple[Any, List[str]]:
    """An artifact cache that logs the entry name of every quarantine."""
    from repro.pipeline.cache import ArtifactCache

    quarantined: List[str] = []

    def on_event(kind: str, details: Dict[str, Any]) -> None:
        if kind == "quarantine":
            quarantined.append(f"{details['stage']}-{details['key']}.npz")

    return ArtifactCache(cache_dir, on_event=on_event), quarantined


class _GuardTarget:
    """One guarded call per injection on a fresh clone of one workload."""

    #: The references *are* the clean answers: no clean phase to audit.
    clean_escapes: Sequence[Dict[str, Any]] = ()

    def __init__(self, spec: Dict[str, Any], seed: int,
                 injector: FaultInjector, cache_dir: str,
                 progress: Callable[[str], None]):
        from repro.core import SpasmCompiler
        from repro.synth import load_workload

        self.spec = spec
        self.seed = seed
        self.injector = injector
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.jobs = int(spec.get("jobs", 1))
        program = SpasmCompiler().compile(
            load_workload(spec["workload"], scale=spec["scale"])
        )
        self.pristine = program.spasm
        self.hw_config = program.hw_config
        self.x = np.random.default_rng(seed).random(
            self.pristine.shape[1]
        )
        self.refs = (
            self.pristine.plan().spmv(self.x, jobs=self.jobs),
            self.pristine.spmv_naive(self.x),
        )
        self._guard_seq = 0

    def __enter__(self) -> "_GuardTarget":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def describe(self) -> Dict[str, Any]:
        return {"workload": {
            "name": self.spec["workload"],
            "scale": self.spec["scale"],
            "nnz": int(self.pristine.source_nnz),
            "shape": list(self.pristine.shape),
            "jobs": self.jobs,
        }}

    def _guard(self, spasm: Any, cache: Any = None) -> ExecutionGuard:
        self._guard_seq += 1
        return ExecutionGuard(
            spasm, config=CAMPAIGN_GUARD, cache=cache,
            seed=self.seed + self._guard_seq,
        )

    def _call(self, guard: ExecutionGuard) -> Answer:
        try:
            return "ok", guard.spmv(self.x, jobs=self.jobs), self.refs, {}
        except IntegrityError:
            return "failed", None, self.refs, {}

    def inject(self, surface: str, index: int) -> Dict[str, Any]:
        inject = self.injector
        if surface == "image":
            return self._inject_image()
        if surface == "cache":
            with tempfile.TemporaryDirectory(dir=self.cache_dir) as tmp:
                cache, quarantined = _quarantine_spy(tmp)
                clone_spasm(self.pristine).plan(cache=cache)  # persist
                record = inject.corrupt_cache_entry(cache)
                answer = self._call(self._guard(
                    clone_spasm(self.pristine), cache=cache
                ))
                fired = (record is not None
                         and record.details["entry"] in quarantined)
            return _injection(surface, record, fired, [answer])
        mutant = clone_spasm(self.pristine)
        guard = self._guard(mutant)
        if surface == "worker":
            plan = mutant.plan()
            with _forced_shards():
                shards = len(plan.shard_bounds(self.jobs))
                mode = ("kill", "kill", "delay")[
                    int(inject.rng.integers(0, 3))
                ]
                nth = int(inject.rng.integers(0, shards))
                with inject.worker_fault(mode=mode, nth=nth) as record:
                    answer = self._call(guard)
            return _injection(surface, record, record.details["fired"],
                              [answer])
        if surface == "stream":
            record = inject.flip_stream_word(mutant)
        elif surface == "value":
            record = inject.flip_value(mutant)
        elif surface == "plan":
            record = inject.flip_plan_array(mutant.plan())
        else:
            raise ValueError(f"unknown guard surface {surface!r}")
        return _injection(surface, record, True, [self._call(guard)])

    def _inject_image(self) -> Dict[str, Any]:
        from repro.hw.memory_image import pack_images
        from repro.verify import verify_memory_image

        image = pack_images(self.pristine, self.hw_config)
        mutated, record = self.injector.flip_image_bit(image)
        if verify_memory_image(mutated, spasm=self.pristine).ok:
            # The roundtrip rule just proved every PE stream unpacks
            # to the pristine encoding, so the image computes the
            # pristine answer: the flip is benign (e.g. a -0.0 sign
            # bit or inter-stream padding).
            answer: Answer = ("ok", self.refs[0], self.refs, {})
        else:
            answer = ("failed", None, self.refs, {})
        return _injection("image", record, True, [answer])


class _ServerTarget:
    """Waves of faults fired at a live server under seeded load."""

    def __init__(self, spec: Dict[str, Any], seed: int,
                 injector: FaultInjector, cache_dir: str,
                 progress: Callable[[str], None]):
        from repro.serve import (
            AdmissionConfig,
            PlanRegistry,
            SpmvServer,
            TenantSpec,
            tenant_probes,
        )
        from repro.synth import load_workload

        self.spec = spec
        self.seed = seed
        self.injector = injector
        cache, self.quarantined = _quarantine_spy(cache_dir)
        self.registry = PlanRegistry(
            cache=cache, guard_config=CAMPAIGN_GUARD, seed=seed,
        )
        self.pristine: Dict[str, Any] = {}
        for workload, scale in spec["matrices"]:
            name = f"{workload}@{scale:g}"
            coo = load_workload(workload, scale)
            entry = self.registry.register(name, coo=coo)
            self.pristine[name] = clone_spasm(entry.spasm)
            progress(f"registered {name}: shape="
                     f"{tuple(entry.spasm.shape)} nnz={coo.nnz}")
        self.plan_names = list(self.pristine)
        self.tenants = [
            TenantSpec(name=tenant, plan=self.plan_names[mat_idx],
                       weight=weight, deadline_ms=deadline_ms,
                       n_probes=n_probes)
            for tenant, mat_idx, weight, deadline_ms, n_probes
            in spec["tenants"]
        ]
        self.probes = tenant_probes(
            self.tenants,
            {name: int(s.shape[1]) for name, s in self.pristine.items()},
            seed,
        )
        # Both the plan path and the naive path are legitimate
        # provenances for an ``ok`` answer.
        self.refs: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for tenant in self.tenants:
            spasm = clone_spasm(self.pristine[tenant.plan])
            self.refs[tenant.name] = [
                (spasm.spmv(x), spasm.spmv_naive(x))
                for x in self.probes[tenant.name]
            ]
        self.server = SpmvServer(
            self.registry,
            admission=AdmissionConfig(
                max_queue_per_plan=spec["max_queue_per_plan"],
                max_total=spec["max_total"],
            ),
            workers=spec["workers"],
        )
        self.burst_records: List[Any] = []
        self.burst_wall_s = 0.0

    def __enter__(self) -> "_ServerTarget":
        self.server.__enter__()
        load = self._load(self.spec["clean_requests"], self.seed + 1)
        counts, self.clean_escapes = _audit(self._answers(load))
        self.clean = {**load.summary(), "audit": counts}
        return self

    def __exit__(self, *exc: Any) -> None:
        self.server.__exit__(*exc)

    def describe(self) -> Dict[str, Any]:
        from repro.serve.loadgen import LoadReport

        burst = LoadReport(records=self.burst_records,
                           wall_s=max(self.burst_wall_s, 1e-9))
        return {
            "matrices": [
                {"name": name, "nnz": int(s.source_nnz),
                 "shape": list(s.shape)}
                for name, s in self.pristine.items()
            ],
            "clean": self.clean,
            "latency_ms": burst.percentiles_ms(),
            "server": self.server.stats(),
        }

    def _load(self, n_requests: int, seed: int) -> Any:
        from repro.serve import run_load

        return run_load(self.server, self.tenants, self.probes,
                        n_requests, seed=seed)

    def _answers(self, load: Any) -> Iterator[Answer]:
        for rec in load.records:
            yield (rec.response.status, rec.response.y,
                   self.refs[rec.tenant][rec.probe],
                   {"tenant": rec.tenant, "plan": rec.plan,
                    "probe": rec.probe})

    def _burst(self, index: int) -> Any:
        load = self._load(self.spec["burst_requests"],
                          self.seed + 101 * (index + 1))
        self.burst_records.extend(load.records)
        self.burst_wall_s += load.wall_s
        return load

    def inject(self, surface: str, index: int) -> Dict[str, Any]:
        from repro.exec.plan import (
            PLAN_STAGE,
            _plan_cache_key,
            stream_digest,
        )

        inject = self.injector
        target = self.plan_names[
            int(inject.rng.integers(len(self.plan_names)))
        ]
        record: Optional[FaultRecord]
        if surface in ("stream", "value", "plan"):
            lease = self.registry.acquire(target)
            try:
                if surface == "stream":
                    record = inject.flip_stream_word(lease.spasm)
                elif surface == "value":
                    record = inject.flip_value(lease.spasm)
                else:
                    record = inject.flip_plan_array(lease.spasm.plan())
            finally:
                self.registry.release(lease)
            load = self._burst(index)
            fired = True
            # Heal: swap a pristine clone in, as an operator
            # re-ingesting the matrix would.
            self.registry.replace(target,
                                  clone_spasm(self.pristine[target]))
        elif surface == "cache":
            # Hit the entry the target's next warm reads, then evict
            # every idle plan so the burst re-warms from disk.
            key = _plan_cache_key(
                stream_digest(self.pristine[target]), None
            )
            record = inject.corrupt_cache_entry(
                self.registry.cache, entry=f"{PLAN_STAGE}-{key}.npz"
            )
            for name in self.plan_names:
                self.registry.evict(name)
            load = self._burst(index)
            fired = (record is not None
                     and record.details["entry"] in self.quarantined)
        elif surface == "worker":
            with _forced_shards():
                # Callers pass no ``jobs``: pin the auto heuristic so
                # every burst request dispatches through the pool.
                for name in self.plan_names:
                    lease = self.registry.acquire(name)
                    try:
                        lease.spasm.plan().override_auto_jobs(2)
                    finally:
                        self.registry.release(lease)
                with inject.worker_fault(
                    mode=("kill", "stall")[index % 2], nth=0,
                ) as record:
                    load = self._burst(index)
            fired = record.details["fired"]
        else:
            raise ValueError(f"unknown server surface {surface!r}")
        return _injection(surface, record, fired, self._answers(load),
                          target=target)


_TARGETS = {"guard": _GuardTarget, "server": _ServerTarget}


def run_campaign(preset: Any = "smoke", seed: int = 0,
                 cache_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 ) -> Dict[str, Any]:
    """Run a fault-injection campaign and return its JSON-able report.

    Parameters
    ----------
    preset:
        A :data:`CAMPAIGN_PRESETS` key, or an explicit preset dict with
        the same schema (tests use this to shrink the campaign).  Its
        ``target`` (``guard`` or ``server``) picks what the faults hit.
    seed:
        Master seed; the whole campaign is a pure function of it.
    cache_dir:
        Directory the cache surface corrupts entries in (a throwaway
        temp dir by default).
    progress:
        Optional callback, one line per phase.
    """
    name, spec = _preset(preset)
    say = progress or (lambda line: None)
    injector = FaultInjector(seed)
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        with _TARGETS[spec["target"]](
            spec, int(seed), injector, cache_dir or tmp, say
        ) as target:
            injections: List[Dict[str, Any]] = []
            for surface, count in spec["trials"].items():
                for _ in range(int(count)):
                    injections.append(
                        target.inject(surface, len(injections))
                    )
                if count:
                    say(f"{surface}: {count} injection(s) done")
            report = {
                "preset": name,
                "target": spec["target"],
                "seed": seed,
                "guard_config": dataclasses.asdict(CAMPAIGN_GUARD),
                **target.describe(),
            }
    report.update(_tally(injections, target.clean_escapes))
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable campaign summary."""
    if report["target"] == "guard":
        w = report["workload"]
        subject = f"workload={w['name']} (nnz={w['nnz']})"
    else:
        subject = "matrices=" + ",".join(
            m["name"] for m in report["matrices"]
        )
    lines = [
        f"fault campaign: preset={report['preset']} "
        f"target={report['target']} seed={report['seed']} {subject}",
    ]
    if "clean" in report:
        clean = report["clean"]
        lines.append(
            f"  clean   requests={clean['requests']:4d} "
            f"qps={clean['qps']:.1f} "
            f"p99={clean['latency_ms']['p99']:.2f} ms; "
            f"faulted p99={report['latency_ms']['p99']:.2f} ms"
        )

    def row(label: str, s: Dict[str, int]) -> str:
        return (
            f"  {label:7s} injections={s['injections']:3d} "
            f"requests={s['requests']:3d} "
            + " ".join(f"{key}={s[key]:3d}"
                       for key in OUTCOMES + ("unfired",))
        )

    for surface in sorted(report["surfaces"]):
        lines.append(row(surface, report["surfaces"][surface]))
    lines.append(row("totals", report["totals"]))
    problems = []
    if report["escapes"]:
        problems.append(f"{len(report['escapes'])} ESCAPED FAULTS")
    if report["unfired"]:
        problems.append("UNFIRED on " + ", ".join(report["unfired"]))
    lines.append(
        "  verdict: "
        + ("; ".join(problems) if problems
           else "ZERO ESCAPES, every injection fired")
    )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Persist a campaign report as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
