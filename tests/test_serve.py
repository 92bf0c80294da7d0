"""Tests for the serving layer: deadlines, registry, admission and
the server end to end (the chaos-under-load campaign is tested with
the other campaign targets in ``tests/test_resilience.py``).

The correctness contract under test everywhere: an ``ok`` response is
bitwise-trustworthy (the guarded plan path, the server's only path),
and a request that cannot be answered in time is shed — never
answered late, never answered unverified.
"""

import threading

import numpy as np
import pytest

from repro.core import candidate_portfolios, encode_spasm
from repro.exec import backends
from repro.resilience import (
    FaultInjector,
    IntegrityError,
    clone_spasm,
)
from repro.resilience.guard import ExecutionGuard, GuardConfig, ResilienceLog
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    PlanRegistry,
    RequestShed,
    SpmvServer,
    TenantSpec,
    UnknownMatrixError,
    make_probes,
    run_load,
    serve_matrices,
    tenant_probes,
)
from tests.conftest import random_structured_coo

#: Confront every in-place fault on the very next call: re-pin the
#: stream digest and re-validate the plan each acquire, so the stress
#: tests below are deterministic (ok implies bitwise-correct).
PARANOID_GUARD = GuardConfig(
    validate_plan=True,
    repin_interval=1,
    revalidate_interval=1,
    check_interval=1,
    check_rows=2,
    max_attempts=2,
    backoff_s=0.0,
    max_retry_wall_s=1.0,
)


def make_spasm(rng, n=96, kind="mixed"):
    coo = random_structured_coo(rng, n, kind)
    return encode_spasm(coo, candidate_portfolios()[0], 32)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired
        clock.t = 1.5
        assert deadline.remaining() == pytest.approx(0.5)
        clock.t = 2.5
        assert deadline.remaining() == 0.0
        assert deadline.expired
        assert deadline.elapsed() == pytest.approx(2.5)

    def test_unbounded_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.t = 1e9
        assert deadline.remaining() == np.inf
        assert not deadline.expired
        deadline.check()  # no raise
        assert "unbounded" in deadline.render()

    def test_check_raises_with_context(self):
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        deadline.check("queue wait")
        clock.t = 0.5
        with pytest.raises(DeadlineExceeded, match="queue wait"):
            deadline.check("queue wait")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.budget_s == pytest.approx(0.25)
        assert Deadline.after_ms(None, clock=clock).budget_s is None

    def test_sleep_clipped_to_budget(self):
        # Real clock here: the clip must bound actual wall time.
        deadline = Deadline(0.01)
        slept = deadline.sleep(5.0)
        assert slept <= 0.01 + 1e-3
        assert deadline.sleep(5.0) <= deadline.budget_s
        exhausted = Deadline(0.0)
        assert exhausted.sleep(5.0) == 0.0


class TestGuardDeadline:
    """The retry loop must respect per-request deadlines."""

    def failing_guard(self, rng, monkeypatch, fail_times):
        """A guard whose kernel raises on its first ``fail_times``
        calls (the ``failing_kernel`` fixture's surface)."""
        spasm = make_spasm(rng)
        guard = ExecutionGuard(
            spasm,
            config=GuardConfig(max_attempts=3, backoff_s=0.001,
                               check_interval=0, validate_plan=False),
            seed=7,
        )
        state = {"left": fail_times}
        original = backends.spmv

        def flaky(*args):
            if state["left"] > 0:
                state["left"] -= 1
                raise RuntimeError("injected kernel failure")
            return original(*args)

        monkeypatch.setattr(backends, "spmv", flaky)
        return spasm, guard

    def test_expired_deadline_short_circuits_retries(self, rng,
                                                     monkeypatch):
        spasm, guard = self.failing_guard(rng, monkeypatch,
                                          fail_times=10)
        x = rng.standard_normal(spasm.shape[1])
        clock = FakeClock()
        y = guard.spmv(x, deadline=Deadline(0.0, clock=clock))
        # Recovery jumped straight to the (verified) naive fallback
        # instead of burning retries the request had no budget for.
        assert np.array_equal(y, spasm.spmv_naive(x))
        kinds = [e.kind for e in guard.log.events]
        assert "deadline" in kinds
        assert "fallback" in kinds

    def test_generous_deadline_allows_recovery(self, rng, monkeypatch):
        spasm, guard = self.failing_guard(rng, monkeypatch,
                                          fail_times=1)
        x = rng.standard_normal(spasm.shape[1])
        y = guard.spmv(x, deadline=Deadline(30.0))
        assert np.array_equal(y, spasm.spmv(x))
        kinds = [e.kind for e in guard.log.events]
        assert "deadline" not in kinds
        assert "fallback" not in [e.action for e in guard.log.events]


class TestPlanRegistry:
    def test_register_needs_exactly_one_source(self, rng):
        registry = PlanRegistry()
        with pytest.raises(ValueError):
            registry.register("x")
        with pytest.raises(ValueError):
            registry.register("x", coo=object(), spasm=object())

    def test_unknown_matrix(self):
        registry = PlanRegistry()
        with pytest.raises(UnknownMatrixError, match="not registered"):
            registry.acquire("ghost")

    def test_cold_registration_warms_on_acquire(self, rng):
        registry = PlanRegistry()
        entry = registry.register("a", spasm=make_spasm(rng),
                                  warm=False)
        assert not entry.hot and entry.guard is None
        lease = registry.acquire("a")
        assert entry.hot and lease.guard is not None
        assert entry.in_flight == 1
        registry.release(lease)
        assert entry.in_flight == 0

    def test_empty_shared_log_is_kept(self, rng):
        log = ResilienceLog()  # empty, hence falsy
        registry = PlanRegistry(log=log)
        registry.register("a", spasm=make_spasm(rng))
        assert registry.log is log
        assert registry._entries["a"].guard.log is log

    def test_explicit_evict_counted_and_logged(self, rng):
        registry = PlanRegistry()
        entry = registry.register("a", spasm=make_spasm(rng))
        assert registry.evict("a") is True
        assert entry.evictions == 1
        assert registry.stats()["evicted_total"] == 1
        assert [(e.kind, e.action) for e in registry.log.events] == \
            [("evict", "evict")]
        # Evicting a cold entry drops nothing, so counts nothing.
        assert registry.evict("a") is True
        assert registry.stats()["evicted_total"] == 1
        assert len(registry.log) == 1

    def test_evict_refused_while_leased(self, rng):
        registry = PlanRegistry()
        registry.register("a", spasm=make_spasm(rng))
        lease = registry.acquire("a")
        assert registry.evict("a") is False
        registry.release(lease)
        assert registry.evict("a") is True
        assert not registry._entries["a"].hot
        # Re-acquire transparently re-warms.
        lease = registry.acquire("a")
        assert lease.entry.hot
        registry.release(lease)

    def test_byte_budget_evicts_lru(self, rng):
        registry = PlanRegistry()
        for name in ("a", "b", "c"):
            registry.register(name, spasm=make_spasm(rng))
        one_plan = registry._entries["a"].plan_nbytes
        # Budget fits roughly two plans: keeping all three hot must
        # evict the least recently used.
        registry.byte_budget = int(2.5 * one_plan)
        for name in ("a", "b", "c"):  # c most recent, a least
            registry.release(registry.acquire(name))
        assert registry.hot_bytes() <= registry.byte_budget
        assert registry.evicted_total > 0
        assert not registry._entries["a"].hot  # LRU victim
        assert registry._entries["c"].hot
        assert any(e.kind == "evict" for e in registry.log.events)

    def test_leased_entries_survive_budget_pressure(self, rng):
        registry = PlanRegistry()
        registry.register("a", spasm=make_spasm(rng))
        registry.register("b", spasm=make_spasm(rng))
        registry.byte_budget = 1  # nothing fits
        lease_a = registry.acquire("a")
        lease_b = registry.acquire("b")
        # Both over budget yet leased: eviction is deferred, logged.
        assert registry._entries["a"].hot
        assert registry._entries["b"].hot
        assert any(
            e.kind == "evict" and e.action == "none"
            for e in registry.log.events
        )
        registry.release(lease_a)
        registry.release(lease_b)

    def test_replace_swaps_stream_and_goes_cold(self, rng):
        registry = PlanRegistry()
        spasm = make_spasm(rng)
        registry.register("a", spasm=clone_spasm(spasm))
        x = rng.standard_normal(spasm.shape[1])
        lease = registry.acquire("a")
        before = lease.guard.spmv(x)
        registry.release(lease)
        registry.replace("a", clone_spasm(spasm))
        entry = registry._entries["a"]
        assert not entry.hot
        lease = registry.acquire("a")
        assert np.array_equal(lease.guard.spmv(x), before)
        registry.release(lease)

    def test_write_path_hashes_each_stream_twice(
        self, rng, monkeypatch
    ):
        """Per warm, cold and rewarm: one stream hash and one plan
        checksum at the build (of the build's own copy; the guard pins
        that plan's digest), one of each at the first answer (the
        live-stream compare against the cached plan, and validate())."""
        import repro.exec.plan as plan_mod
        import repro.exec.policy as policy_mod

        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(plan_mod, "stream_digest")
        counting(plan_mod, "plan_checksum")
        counting(policy_mod, "plan_checksum")
        coo = random_structured_coo(rng, 96, "mixed")
        x = rng.standard_normal(coo.shape[1])
        registry = PlanRegistry()

        def answer():
            lease = registry.acquire("a")
            try:
                return lease.guard.spmv(x)
            finally:
                registry.release(lease)

        per_warm = ["plan_checksum"] * 2 + ["stream_digest"] * 2
        registry.register("a", coo=coo)
        cold = answer()
        assert sorted(calls) == per_warm
        del calls[:]
        assert registry.evict("a") is True
        assert np.array_equal(answer(), cold)
        assert sorted(calls) == per_warm
        assert np.array_equal(
            cold, registry._entries["a"].spasm.spmv_naive(x)
        )

    def test_stream_mutated_after_build_is_refused(
        self, rng, monkeypatch
    ):
        """The guard pins the digest of the bytes the plan was built
        from: a bit flipped in the live stream right after the build
        fails the first answer, on the guard and through the server,
        instead of being pinned as trusted."""
        from repro.exec.plan import ExecutionPlan

        real_build = ExecutionPlan.build.__func__
        flipped = []

        def build_then_flip(cls, spasm, *args, **kwargs):
            plan = real_build(cls, spasm, *args, **kwargs)
            if not flipped:
                flipped.append(FaultInjector(seed=1).flip_value(spasm))
            return plan

        monkeypatch.setattr(ExecutionPlan, "build",
                            classmethod(build_then_flip))
        spasm = make_spasm(rng)
        x = rng.standard_normal(spasm.shape[1])

        registry = PlanRegistry()
        registry.register("a", spasm=clone_spasm(spasm))
        assert flipped
        lease = registry.acquire("a")
        try:
            with pytest.raises(IntegrityError):
                lease.guard.spmv(x)
        finally:
            registry.release(lease)

        del flipped[:]
        registry = PlanRegistry()
        registry.register("a", spasm=clone_spasm(spasm))
        assert flipped
        with SpmvServer(registry, workers=1) as server:
            response = server.query("a", x)
        assert response.status == "failed"
        assert "integrity" in response.detail

    def test_warmup_warms_cold_entries(self, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        registry = PlanRegistry()
        cold = registry.register("a", coo=coo, warm=False)
        assert not cold.hot
        summary = registry.warmup()
        assert summary == {"warmed": ["a"],
                           "hot_bytes": cold.plan_nbytes}
        assert cold.hot and cold.guard is not None
        assert registry.warmup()["warmed"] == []
        x = rng.standard_normal(coo.shape[1])
        lease = registry.acquire("a")
        assert np.array_equal(lease.guard.spmv(x),
                              cold.spasm.spmv_naive(x))
        registry.release(lease)

    def test_evict_while_executing_race(self, rng):
        """Threaded stress: queries race the byte-budget evictor and a
        seeded fault injector; every ok result must stay bitwise-true
        and every fault must surface as IntegrityError."""
        pristine = {
            "a": make_spasm(rng, n=96, kind="blocks"),
            "b": make_spasm(rng, n=96, kind="scatter"),
        }
        registry = PlanRegistry(guard_config=PARANOID_GUARD, seed=3)
        for name, spasm in pristine.items():
            registry.register(name, spasm=clone_spasm(spasm))
        # Budget below two plans: every cross-matrix switch evicts.
        registry.byte_budget = max(
            e.plan_nbytes for e in registry._entries.values()
        )
        probes = {
            name: rng.standard_normal(spasm.shape[1])
            for name, spasm in pristine.items()
        }
        refs = {
            name: pristine[name].spmv_naive(probes[name])
            for name in pristine
        }
        errors = []
        integrity_hits = threading.Semaphore(0)

        def worker(widx):
            wrng = np.random.default_rng(100 + widx)
            for _ in range(25):
                name = ("a", "b")[int(wrng.integers(2))]
                lease = registry.acquire(name)
                try:
                    y = lease.guard.spmv(probes[name])
                    if not np.array_equal(y, refs[name]):
                        errors.append(f"wrong result for {name}")
                except IntegrityError:
                    integrity_hits.release()
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"{type(exc).__name__}: {exc}")
                finally:
                    registry.release(lease)

        def saboteur():
            injector = FaultInjector(seed=42)
            for round_idx in range(8):
                name = ("a", "b")[round_idx % 2]
                lease = registry.acquire(name)
                try:
                    injector.flip_value(lease.spasm)
                    # Hold the lease while queries hit the corrupt
                    # stream: in_flight pins the entry hot, so budget
                    # pressure can never evict it and re-warm a fresh
                    # guard that would pin the corrupted stream as
                    # ground truth.  Heal before releasing for the
                    # same reason.
                    for _ in range(20):
                        if integrity_hits.acquire(timeout=0.05):
                            break
                    registry.replace(
                        name, clone_spasm(pristine[name])
                    )
                finally:
                    registry.release(lease)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=saboteur)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert registry.evicted_total > 0  # the race was real
        for entry in registry._entries.values():
            assert entry.in_flight == 0


class Item:
    """Duck-typed admission item."""

    def __init__(self, plan, deadline=None):
        self.plan = plan
        self.deadline = deadline


class TestAdmission:
    def test_per_plan_queue_bound(self):
        ctl = AdmissionController(AdmissionConfig(
            max_queue_per_plan=2, max_total=100))
        ctl.submit(Item("a"))
        ctl.submit(Item("a"))
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a"))
        assert exc.value.reason == "queue_full"
        ctl.submit(Item("b"))  # other plans unaffected
        assert ctl.stats()["shed"] == {"queue_full": 1}

    def test_global_overload_bound(self):
        ctl = AdmissionController(AdmissionConfig(
            max_queue_per_plan=100, max_total=3))
        for i in range(3):
            ctl.submit(Item(f"p{i}"))
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("p9"))
        assert exc.value.reason == "overload"
        assert ctl.pressure() == pytest.approx(1.0)

    def test_hopeless_deadline_shed_at_door(self):
        ctl = AdmissionController(AdmissionConfig(min_deadline_s=0.01))
        clock = FakeClock()
        fresh = Deadline(1.0, clock=clock)
        stale = Deadline(1.0, clock=clock)
        ctl.submit(Item("a", deadline=fresh))
        clock.t = 0.995  # 5ms left: below the admission floor
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a", deadline=stale))
        assert exc.value.reason == "deadline"

    def test_closed_sheds(self):
        ctl = AdmissionController()
        ctl.close()
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a"))
        assert exc.value.reason == "closed"
        assert ctl.take(timeout=0.01) is None

    def test_round_robin_across_plans(self):
        ctl = AdmissionController()
        for plan in ("a", "a", "a", "b", "c"):
            ctl.submit(Item(plan))
        order = [ctl.take(timeout=0.01).plan for _ in range(5)]
        # One hot plan cannot starve the others.
        assert order[:3] == ["a", "b", "c"]
        assert order[3:] == ["a", "a"]

    def test_drain_matching_feeds_batches(self):
        ctl = AdmissionController()
        for plan in ("a", "b", "a", "a"):
            ctl.submit(Item(plan))
        first = ctl.take(timeout=0.01)
        assert first.plan == "a"
        siblings = ctl.drain_matching("a", limit=8)
        assert [s.plan for s in siblings] == ["a", "a"]
        assert ctl.depth() == 1  # only b remains

    def test_take_timeout_returns_none(self):
        assert AdmissionController().take(timeout=0.01) is None


@pytest.fixture
def small_server(rng):
    spasm = make_spasm(rng)
    registry = PlanRegistry(seed=5)
    registry.register("m", spasm=spasm)
    server = SpmvServer(registry, workers=1)
    with server:
        yield server, spasm


class TestSpmvServer:
    def test_ok_response_is_bitwise_plan_output(self, small_server, rng):
        server, spasm = small_server
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x, tenant="t")
        assert response.ok and response.status == "ok"
        assert np.array_equal(response.y, spasm.spmv(x))
        assert response.level == "tuned"
        assert response.latency_s >= 0

    def test_unknown_plan_fails_cleanly(self, small_server, rng):
        server, spasm = small_server
        response = server.query("ghost", np.ones(4))
        assert response.status == "failed"
        assert "not registered" in response.detail

    def test_expired_deadline_shed_at_submission(self, small_server,
                                                 rng):
        server, spasm = small_server
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x, deadline=Deadline(0.0))
        assert response.status == "shed"
        assert response.y is None
        assert "deadline" in response.detail

    def test_submit_after_stop_sheds_closed(self, rng):
        registry = PlanRegistry()
        registry.register("m", spasm=make_spasm(rng))
        server = SpmvServer(registry, workers=1)
        server.start()
        server.stop()
        response = server.submit("m", np.ones(4)).result()
        assert response.status == "shed"
        assert "closed" in response.detail

    def test_batch_coalescing_is_bitwise(self, rng):
        spasm = make_spasm(rng)
        registry = PlanRegistry(seed=5)
        registry.register("m", spasm=spasm)
        server = SpmvServer(registry, workers=1)
        xs = rng.standard_normal((6, spasm.shape[1]))
        # Queue everything before the worker exists, so the first
        # take() coalesces the whole backlog into one batch.
        futures = [server.submit("m", x) for x in xs]
        with server:
            responses = [f.result() for f in futures]
        assert all(r.ok for r in responses)
        assert max(r.batched for r in responses) > 1
        for x, r in zip(xs, responses):
            assert np.array_equal(r.y, spasm.spmv(x))

    def test_deadline_lapsing_during_execution_is_shed_and_counted(
        self, small_server, rng, monkeypatch
    ):
        """A result that is ready only after its deadline is shed, and
        the shed is counted with the door's deadline sheds."""
        server, spasm = small_server
        clock = FakeClock()
        guard = server.registry._entries["m"].guard
        real_spmv = guard.spmv

        def slow_spmv(*args, **kwargs):
            clock.t += 2.0
            return real_spmv(*args, **kwargs)

        monkeypatch.setattr(guard, "spmv", slow_spmv)
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x, deadline=Deadline(1.0,
                                                          clock=clock))
        assert response.status == "shed"
        assert "result ready after deadline" in response.detail
        assert server.stats()["admission"]["shed"]["deadline"] == 1

    def test_stats_and_health(self, small_server, rng):
        server, spasm = small_server
        server.query("m", rng.standard_normal(spasm.shape[1]))
        stats = server.stats()
        assert stats["completed"]["ok"] >= 1
        assert stats["registry"]["entries"][0]["name"] == "m"
        assert "shed" in stats["admission"]
        health = server.health()
        assert health["running"]
        assert health["queued"] == 0
        assert health["hot_bytes"] > 0

    def test_guard_incidents_reach_server_stats(self, rng,
                                                failing_kernel):
        coo = random_structured_coo(rng, 64, "mixed")
        with serve_matrices({"m": coo}, workers=1) as server:
            entry = server.registry._entries["m"]
            assert entry.guard.log is server.log
            x = rng.standard_normal(coo.shape[1])
            response = server.query("m", x)
            # The kernel raises on every call; the guard falls back
            # to the naive engine and says so.
            assert response.ok
            assert np.array_equal(response.y, entry.spasm.spmv_naive(x))
            counts = server.stats()["resilience"]
            assert counts.get("fallback", 0) >= 1
            assert counts.get("detect", 0) >= 1

    def test_serve_matrices_one_call_setup(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        server = serve_matrices({"m": coo}, workers=1)
        with server:
            x = rng.standard_normal(coo.shape[1])
            response = server.query("m", x)
            assert response.ok
            entry = server.registry._entries["m"]
            assert np.array_equal(response.y, entry.spasm.spmv(x))


class TestLoadGeneration:
    def test_probe_pools_deterministic(self):
        a = make_probes(16, 3, seed=9)
        b = make_probes(16, 3, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (3, 16)
        tenants = [TenantSpec("t0", "m"), TenantSpec("t1", "m")]
        pools = tenant_probes(tenants, {"m": 16}, seed=9)
        assert set(pools) == {"t0", "t1"}
        assert not np.array_equal(pools["t0"], pools["t1"])

    def test_run_load_accounts_every_request(self, small_server):
        server, spasm = small_server
        tenants = [
            TenantSpec("fast", "m", weight=2.0, deadline_ms=5000.0,
                       n_probes=2),
            TenantSpec("slow", "m", weight=1.0, n_probes=2),
        ]
        probes = tenant_probes(
            tenants, {"m": int(spasm.shape[1])}, seed=3)
        report = run_load(server, tenants, probes, n_requests=20,
                          seed=3)
        assert len(report.records) == 20
        assert sum(report.counts().values()) == 20
        assert report.counts().get("ok", 0) > 0
        summary = report.summary()
        assert summary["requests"] == 20
        assert set(summary["latency_ms"]) == {"p50", "p95", "p99"}
        # Seeded: the same load replays the same tenant sequence.
        replay = run_load(server, tenants, probes, n_requests=20,
                          seed=3)
        assert [r.tenant for r in replay.records] == \
            [r.tenant for r in report.records]


class TestChaosSmoke:
    """The chaos campaign runs through the shared campaign runner (its
    server-target presets are exercised in tests/test_resilience.py)."""

    def test_unknown_preset_rejected(self):
        from repro.resilience.campaign import run_campaign

        with pytest.raises(KeyError):
            run_campaign("hurricane")
