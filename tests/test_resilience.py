"""Tests for deterministic fault injection and guarded execution."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios, encode_spasm
from repro.exec import backends
from repro.exec.plan import ExecutionPlan, set_shard_fault_hook
from repro.matrix.coo import COOMatrix
from repro.resilience import (
    ExecutionGuard,
    FaultInjector,
    GuardConfig,
    IntegrityError,
    InjectedWorkerFault,
    ResilienceEvent,
    ResilienceLog,
    RowOracle,
    clone_spasm,
    guarded_spmv,
    render_report,
    run_campaign,
)
from repro.synth import WORKLOAD_SUITE, load_workload
from tests.conftest import random_structured_coo

#: Guard knobs that confront a fault on the very next call.
STRICT = GuardConfig(revalidate_interval=1, check_interval=1)


def encode(coo, tile_size=32):
    return encode_spasm(coo, candidate_portfolios()[0], tile_size)


@pytest.fixture
def spasm(rng):
    return encode(random_structured_coo(rng, 96, "mixed"))


@pytest.fixture
def x(rng, spasm):
    return rng.random(spasm.shape[1])


@pytest.fixture
def reference(spasm, x):
    return spasm.plan().spmv(x)


class TestFaultInjector:
    def test_deterministic_from_seed(self, spasm):
        records = []
        for _ in range(2):
            inj = FaultInjector(seed=42)
            mutant = clone_spasm(spasm)
            records.append([
                inj.flip_stream_word(mutant).to_dict(),
                inj.flip_value(mutant).to_dict(),
            ])
        assert records[0] == records[1]

    def test_clone_isolates_pristine(self, spasm, x):
        before = spasm.plan().spmv(x)
        mutant = clone_spasm(spasm)
        FaultInjector(0).flip_stream_word(mutant)
        FaultInjector(0).flip_value(mutant)
        assert np.array_equal(spasm.plan().spmv(x), before)

    def test_stream_flip_changes_digest(self, spasm):
        from repro.exec import stream_digest

        mutant = clone_spasm(spasm)
        d0 = stream_digest(mutant)
        FaultInjector(1).flip_stream_word(mutant)
        assert stream_digest(mutant) != d0

    def test_value_flip_changes_digest(self, spasm):
        from repro.exec import stream_digest

        mutant = clone_spasm(spasm)
        d0 = stream_digest(mutant)
        FaultInjector(2).flip_value(mutant)
        assert stream_digest(mutant) != d0

    def test_plan_flip_breaks_checksum(self, spasm):
        plan = clone_spasm(spasm).plan()
        assert plan.validate() == []
        FaultInjector(3).flip_plan_array(plan)
        assert plan.validate() != []

    def test_worker_hook_restored_on_exit(self, spasm, x):
        inj = FaultInjector(5)
        with inj.worker_fault(mode="kill", nth=0):
            with pytest.raises(InjectedWorkerFault):
                spasm.plan().spmv(x)
        # hook gone: execution is clean again
        assert np.array_equal(
            spasm.plan().spmv(x), spasm.spmv_naive(x)
        ) or np.allclose(spasm.plan().spmv(x), spasm.spmv_naive(x))


class TestGuardCleanPath:
    def test_bitwise_identical_and_silent(self, spasm, x, reference):
        guard = ExecutionGuard(spasm)
        for _ in range(2 * GuardConfig().check_interval + 1):
            assert np.array_equal(guard.spmv(x), reference)
        assert len(guard.log) == 0

    def test_y_accumulation(self, rng, spasm, x):
        y0 = rng.random(spasm.shape[0])
        guard = ExecutionGuard(spasm)
        assert np.array_equal(
            guard.spmv(x, y=y0), spasm.plan().spmv(x, y=y0)
        )

    def test_shape_validation(self, spasm):
        guard = ExecutionGuard(spasm)
        with pytest.raises(ValueError):
            guard.spmv(np.zeros(7))

    def test_guarded_spmv_helper(self, spasm, x, reference):
        assert np.array_equal(guarded_spmv(spasm, x), reference)

    def test_spmm_clean(self, rng, spasm):
        x_block = rng.random((spasm.shape[1], 3))
        guard = ExecutionGuard(spasm)
        assert np.array_equal(
            guard.spmm(x_block), spasm.plan().spmm(x_block)
        )


#: The guarded ops; they share one attempt loop.
GUARD_OPS = ("spmv", "spmm", "spmv_batch")


def op_input(op, spasm, rng):
    """One valid input for the guarded ``op`` on ``spasm``."""
    nrows, ncols = spasm.shape
    if op == "spmv":
        return rng.random(ncols)
    if op == "spmm":
        return rng.random((ncols, 3))
    return rng.random((3, ncols))


class TestGuardParity:
    """Each recovery rule holds alike for spmv, spmm and spmv_batch."""

    @pytest.mark.parametrize("op", GUARD_OPS)
    def test_jobs_zero_is_a_caller_error(self, op, spasm, rng):
        guard = ExecutionGuard(spasm)
        with pytest.raises(ValueError):
            getattr(guard, op)(op_input(op, spasm, rng), jobs=0)
        assert guard.log.events == []

    @pytest.mark.parametrize("op", GUARD_OPS)
    def test_one_kernel_failure_rebuilds_once(self, op, spasm, rng,
                                              monkeypatch):
        arg = op_input(op, spasm, rng)
        guard = ExecutionGuard(spasm)
        clean = getattr(guard, op)(arg)
        fails = {"left": 1}
        for name in ("spmv", "spmm"):
            real = getattr(backends, name)

            def once(*args, _real=real):
                if fails["left"]:
                    fails["left"] -= 1
                    raise RuntimeError("injected kernel failure")
                return _real(*args)

            monkeypatch.setattr(backends, name, once)
        real_build = ExecutionPlan.build.__func__
        builds = []

        def spy(cls, *args, **kwargs):
            builds.append(1)
            return real_build(cls, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "build", classmethod(spy))
        out = getattr(guard, op)(arg)
        assert np.array_equal(out, clean)
        assert len(builds) == 1
        assert [e.kind for e in guard.log.events] == ["detect", "rebuild"]

    @pytest.mark.parametrize("op", GUARD_OPS)
    def test_no_fallback_logs_raise(self, op, spasm, rng,
                                    failing_kernel):
        guard = ExecutionGuard(spasm, config=GuardConfig(fallback=False))
        with pytest.raises(IntegrityError, match="fallback"):
            getattr(guard, op)(op_input(op, spasm, rng))
        last = guard.log.events[-1]
        assert (last.kind, last.action) == ("detect", "raise")


class TestGuardDetection:
    def test_plan_corruption_contained(self, spasm, x, reference):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(7).flip_plan_array(mutant.plan())
        out = guard.spmv(x)
        assert np.array_equal(out, reference)
        kinds = {e.kind for e in guard.log.events}
        assert "detect" in kinds
        surfaces = {e.surface for e in guard.log.events}
        assert "plan" in surfaces

    def test_stream_corruption_raises(self, spasm, x):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(8).flip_stream_word(mutant)
        with pytest.raises(IntegrityError) as err:
            guard.spmv(x)
        assert err.value.events  # structured evidence attached

    def test_value_corruption_raises(self, spasm, x):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(9).flip_value(mutant)
        with pytest.raises(IntegrityError):
            guard.spmv(x)

    def test_stream_mutated_after_plan_refused(self, spasm, x):
        """The guard pins the cached plan's digest, not the live
        stream: a stream mutated between ``plan()`` and the guard is
        refused at the first answer instead of being trusted."""
        mutant = clone_spasm(spasm)
        pristine = mutant.plan().digest
        FaultInjector(9).flip_value(mutant)
        guard = ExecutionGuard(mutant)
        assert guard.expected_digest == pristine
        with pytest.raises(IntegrityError, match="after the guard pinned"):
            guard.spmv(x)

    def test_pin_hashes_live_stream_without_plan(self, spasm):
        mutant = clone_spasm(spasm)
        assert ExecutionGuard(mutant).expected_digest == \
            mutant.stream_digest()

    def test_worker_kill_retried(self, spasm, x, reference):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        with FaultInjector(10).worker_fault(mode="kill", nth=0):
            out = guard.spmv(x)
        assert np.array_equal(out, reference)
        assert any(
            e.surface == "worker" for e in guard.log.events
        )

    def test_persistent_failure_falls_back(self, spasm, x):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        guard = ExecutionGuard(clone_spasm(spasm), config=STRICT)
        previous = set_shard_fault_hook(always_kill)
        try:
            out = guard.spmv(x)
        finally:
            set_shard_fault_hook(previous)
        assert np.allclose(out, spasm.spmv_naive(x))
        assert any(
            e.kind == "fallback" for e in guard.log.events
        )

    def test_fallback_disabled_raises(self, spasm, x):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        cfg = dataclasses.replace(STRICT, fallback=False)
        guard = ExecutionGuard(clone_spasm(spasm), config=cfg)
        previous = set_shard_fault_hook(always_kill)
        try:
            with pytest.raises(IntegrityError):
                guard.spmv(x)
        finally:
            set_shard_fault_hook(previous)

    def test_spmm_falls_back(self, rng, spasm):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        x_block = rng.random((spasm.shape[1], 3))
        guard = ExecutionGuard(clone_spasm(spasm), config=STRICT)
        previous = set_shard_fault_hook(always_kill)
        try:
            out = guard.spmm(x_block)
        finally:
            set_shard_fault_hook(previous)
        assert np.allclose(out, spasm.spmm_naive(x_block))

class TestRowOracle:
    def test_clean_output_passes(self, spasm, x):
        oracle = RowOracle.build(
            spasm, np.arange(min(8, spasm.shape[0]))
        )
        assert oracle.mismatches(x, spasm.plan().spmv(x)) == []

    def test_corrupted_output_flagged(self, spasm, x):
        rows = np.arange(min(8, spasm.shape[0]))
        oracle = RowOracle.build(spasm, rows)
        bad = spasm.plan().spmv(x)
        victim = int(rows[0])
        bad[victim] += 1.0
        assert victim in oracle.mismatches(x, bad)

    def test_one_ulp_flagged(self, rng, spasm, x):
        """The comparison is bitwise: a last-bit change is a mismatch,
        with or without ``y``."""
        rows = np.arange(spasm.shape[0])
        oracle = RowOracle.build(spasm, rows)
        y0 = rng.random(spasm.shape[0])
        for y in (None, y0):
            out = spasm.plan().spmv(x, y=y)
            assert oracle.mismatches(x, out, y) == []
            victim = int(np.flatnonzero(out)[0])
            out[victim] = np.nextafter(out[victim], np.inf)
            assert oracle.mismatches(x, out, y) == [victim]

    def test_low_mantissa_value_flip_detected(self, spasm, x, reference):
        """A bit-0 flip of a plan value moves a sampled row by an ulp
        or so — far inside any tolerance — and is still refused: the
        plan is rebuilt and the answer is the clean one."""
        guard = ExecutionGuard(
            spasm, config=GuardConfig(check_interval=1, check_rows=16))
        assert np.array_equal(guard.spmv(x), reference)
        plan, rows = guard._plan, guard._oracle.rows
        bits = plan.vals.view(np.uint64)
        flipped = None
        for slot in range(int(plan.indptr[rows[0]]),
                          int(plan.indptr[rows[-1] + 1])):
            bits[slot] ^= np.uint64(1)
            moved = plan.spmv(x) != reference
            if moved[rows].any():
                flipped = moved
                break
            bits[slot] ^= np.uint64(1)
        assert flipped is not None
        # A tolerance of 1e-9 sees nothing.
        assert np.allclose(plan.spmv(x), reference, rtol=1e-9, atol=0)
        assert np.array_equal(guard.spmv(x), reference)
        detect = [e for e in guard.log.events if e.kind == "detect"]
        assert [e.surface for e in detect] == ["output"]
        assert guard._plan is not plan

    @pytest.mark.parametrize("name", [s.name for s in WORKLOAD_SUITE])
    def test_no_false_flags_on_suite(self, name):
        """Every row of every suite matrix, through spmv, spmv(y=) and
        spmv_batch, matches the oracle bit for bit."""
        spasm = SpasmCompiler().compile(load_workload(name, 0.1)).spasm
        nrows, ncols = spasm.shape
        oracle = RowOracle.build(spasm, np.arange(nrows))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(ncols), rng.standard_normal(nrows)
        xs = rng.standard_normal((3, ncols))
        plan = spasm.plan()
        assert oracle.mismatches(x, plan.spmv(x)) == []
        assert oracle.mismatches(x, plan.spmv(x, y=y), y) == []
        for xq, out in zip(xs, plan.spmv_batch(xs)):
            assert oracle.mismatches(xq, out) == []
        guard = ExecutionGuard(
            spasm, config=GuardConfig(check_interval=1, check_rows=64))
        for _ in range(3):
            guard.spmv(x)
            guard.spmv(x, y=y)
            guard.spmv_batch(xs)
        assert guard.log.events == []


class TestResilienceLog:
    def test_counts_and_render(self):
        log = ResilienceLog()
        log.record(ResilienceEvent(
            kind="detect", surface="plan", detail="checksum mismatch",
            action="rebuild", attempt=1,
        ))
        log.record(ResilienceEvent(
            kind="fallback", surface="plan", detail="gave up",
            action="fallback",
        ))
        assert log.counts() == {"detect": 1, "fallback": 1}
        assert "checksum mismatch" in log.render()
        assert len(log.to_dicts()) == 2


#: One tiny preset per campaign target.
TINY_PRESETS = {
    "guard": {
        "name": "tiny-guard",
        "target": "guard",
        "workload": "stormG2_1000",
        "scale": 0.5,
        "jobs": 2,
        "trials": {
            "stream": 2, "value": 2, "plan": 2,
            "worker": 2, "image": 1,
        },
    },
    "server": {
        "name": "tiny-server",
        "target": "server",
        "matrices": [("tmt_sym", 0.3)],
        "tenants": [("t0", 0, 1.0, None, 2)],
        "workers": 1,
        "max_queue_per_plan": 16,
        "max_total": 32,
        "clean_requests": 10,
        "burst_requests": 6,
        "trials": {
            "stream": 1, "value": 1, "plan": 1, "worker": 1,
        },
    },
}

#: Report fields that hold wall-clock measurements, not outcomes.
TIMING_FIELDS = ("latency_ms", "qps", "wall_s", "server")


def outcomes(report):
    """A report with every timing field stripped, at any depth."""
    if isinstance(report, dict):
        return {key: outcomes(value) for key, value in report.items()
                if key not in TIMING_FIELDS}
    if isinstance(report, list):
        return [outcomes(value) for value in report]
    return report


def unwired_shard_hook(monkeypatch):
    """Never install the shard fault hook, so a worker fault cannot
    fire."""
    from repro.resilience import faults

    monkeypatch.setattr(faults, "set_shard_fault_hook", lambda hook: None)


class TestCampaign:
    @pytest.mark.parametrize("target", sorted(TINY_PRESETS))
    def test_tiny_campaign_zero_escapes(self, target):
        preset = TINY_PRESETS[target]
        report = run_campaign(preset, seed=3)
        assert report["passed"] and report["zero_escapes"]
        assert report["escapes"] == [] and report["unfired"] == []
        assert all(row["fired"] for row in report["injections"])
        totals = report["totals"]
        assert totals["injections"] == sum(preset["trials"].values())
        assert totals["escaped"] == 0 and totals["unfired"] == 0
        assert (
            totals["contained"] + totals["detected"] + totals["shed"]
            == totals["requests"]
        )
        assert set(report["surfaces"]) == set(preset["trials"])
        json.dumps(report)  # report must be JSON-serializable
        assert "ZERO ESCAPES" in render_report(report)

    @pytest.mark.parametrize("target", sorted(TINY_PRESETS))
    def test_campaign_reproducible_from_seed(self, target):
        a = run_campaign(TINY_PRESETS[target], seed=5)
        b = run_campaign(TINY_PRESETS[target], seed=5)
        assert outcomes(a) == outcomes(b)

    @pytest.mark.parametrize("target", sorted(TINY_PRESETS))
    def test_unfired_injection_fails_campaign(self, target, monkeypatch):
        unwired_shard_hook(monkeypatch)
        preset = dict(TINY_PRESETS[target], trials={"worker": 1})
        report = run_campaign(preset, seed=0)
        assert report["zero_escapes"]
        assert report["unfired"] == ["worker"]
        assert report["totals"]["unfired"] == 1
        assert not report["passed"]
        assert "UNFIRED on worker" in render_report(report)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            run_campaign("nope", seed=0)


class TestHwIntegration:
    def test_fast_run_with_guard_bitwise(self, rng, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        acc = SpasmAccelerator(SPASM_4_1)
        guard = ExecutionGuard(spasm)
        plain = acc.run(spasm, x, engine="fast")
        guarded = acc.run(spasm, x, engine="fast", guard=guard)
        assert np.array_equal(plain.y, guarded.y)
        assert plain.hbm_bytes == guarded.hbm_bytes

    def test_guard_for_wrong_matrix_rejected(self, rng, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        other = clone_spasm(spasm)
        acc = SpasmAccelerator(SPASM_4_1)
        with pytest.raises(ValueError):
            acc.run(spasm, x, engine="fast",
                    guard=ExecutionGuard(other))

    def test_guard_requires_fast_engine(self, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        acc = SpasmAccelerator(SPASM_4_1)
        with pytest.raises(ValueError):
            acc.run(spasm, x, engine="event",
                    guard=ExecutionGuard(spasm))
