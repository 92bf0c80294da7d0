"""Tests for the pluggable kernel-backend registry.

The acceptance gate of the backend split: every registered backend
that claims a plan layout produces **bitwise identical** float64
results to the portable ``gather`` reference across all three entry
points (``spmv``/``spmm``/``spmv_batch``), serial and sharded.  The
registry's negotiation policy and error paths, the guard's fallback
ladder through a hostile backend, and prepared-state fault injection
ride along.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidate_portfolios, encode_spasm
from repro.exec import (
    BackendCapabilityError,
    BackendUnavailable,
    ExecutionPlan,
    available_backends,
    csr_kernels_available,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)
from repro.exec.backends.gather import GatherBackend
from repro.exec.backends.numba_jit import numba_available
from repro.matrix.coo import COOMatrix
from repro.resilience import (
    ExecutionGuard,
    FaultInjector,
    GuardConfig,
    IntegrityError,
)
from tests.conftest import FailingBackend, random_structured_coo

#: Every storable plan layout; each backend participates in the
#: parity sweep exactly where its declared capabilities claim it.
LAYOUTS = [
    ("int32", "float64"),
    ("int32", "float32"),
    ("int64", "float64"),
    ("int64", "float32"),
]


def integer_coo(rng, n=48, kind="mixed"):
    """Small-integer values: float64 sums are order-independent, so
    every cross-backend comparison can demand bitwise equality."""
    coo = random_structured_coo(rng, n, kind)
    vals = rng.integers(1, 8, size=coo.nnz).astype(np.float64)
    return COOMatrix(rows=coo.rows, cols=coo.cols, vals=vals,
                     shape=coo.shape)


def encode(coo, tile_size=32):
    return encode_spasm(coo, candidate_portfolios()[0], tile_size)


def build_plan(rng, index="int32", precision="float64", n=48):
    spasm = encode(integer_coo(rng, n))
    return spasm, ExecutionPlan.build(
        spasm, index=index, precision=precision
    )


# -- cross-backend bitwise parity --------------------------------------


class TestBitwiseParity:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        layout=st.sampled_from(LAYOUTS),
        jobs=st.sampled_from([1, 3]),
    )
    def test_every_capable_backend_matches_gather(
        self, seed, layout, jobs
    ):
        """gather is the reference; csr (and numba when installed)
        must agree bitwise on every layout they claim, for all three
        ops, sharded and serial."""
        index, precision = layout
        rng = np.random.default_rng(seed)
        __, plan = build_plan(rng, index=index, precision=precision)
        n = plan.shape[1]
        x = rng.random(n)
        xb = rng.random((n, 3))
        xs = rng.random((4, n))

        ref_v = plan.spmv(x, jobs=jobs, backend="gather")
        ref_m = plan.spmm(xb, jobs=jobs, backend="gather")
        ref_b = plan.spmv_batch(xs, jobs=jobs, backend="gather")
        # Serial and sharded gather agree with themselves first.
        assert np.array_equal(ref_v, plan.spmv(x, backend="gather"))

        others = [
            engine for engine in available_backends()
            if engine.name != "gather"
        ]
        for engine in others:
            for op in ("spmv", "spmm", "spmv_batch"):
                if not engine.supports(plan, op):
                    continue
                if op == "spmv":
                    got = plan.spmv(x, jobs=jobs, backend=engine.name)
                    assert np.array_equal(got, ref_v), engine.name
                elif op == "spmm":
                    got = plan.spmm(xb, jobs=jobs, backend=engine.name)
                    assert np.array_equal(got, ref_m), engine.name
                else:
                    got = plan.spmv_batch(
                        xs, jobs=jobs, backend=engine.name
                    )
                    assert np.array_equal(got, ref_b), engine.name

    @pytest.mark.skipif(not csr_kernels_available(),
                        reason="scipy kernels unavailable")
    def test_parity_is_not_vacuous_for_csr(self, rng):
        """The canonical compact layout really exercises the csr
        backend: auto resolves to it and it agrees with gather."""
        __, plan = build_plan(rng)
        assert resolve_backend(None, plan=plan, op="spmv").name == "csr"
        x = np.random.default_rng(7).random(plan.shape[1])
        assert np.array_equal(
            plan.spmv(x, backend="csr"),
            plan.spmv(x, backend="gather"),
        )

    @pytest.mark.skipif(not numba_available(),
                        reason="numba not installed")
    def test_numba_matches_gather_on_every_layout(self, rng):
        for index, precision in LAYOUTS:
            __, plan = build_plan(
                rng, index=index, precision=precision
            )
            n = plan.shape[1]
            x = np.random.default_rng(3).random(n)
            xs = np.random.default_rng(4).random((3, n))
            assert np.array_equal(
                plan.spmv(x, backend="numba"),
                plan.spmv(x, backend="gather"),
            )
            assert np.array_equal(
                plan.spmv_batch(xs, backend="numba"),
                plan.spmv_batch(xs, backend="gather"),
            )

    def test_float64_backends_match_naive_exactly(self, rng):
        """Every float64-capable backend is bitwise equal to the
        naive re-expansion engine on integer values."""
        spasm, plan = build_plan(rng)
        x = np.random.default_rng(11).random(plan.shape[1])
        reference = spasm.spmv_naive(x)
        for engine in available_backends():
            if not engine.supports(plan, "spmv"):
                continue
            got = plan.spmv(x, backend=engine.name)
            assert np.array_equal(got, reference), engine.name


# -- registry and negotiation ------------------------------------------


class TestRegistry:
    def test_negotiation_order_is_priority_descending(self):
        names = [b.name for b in registered_backends()]
        assert names == ["csr", "numba", "gather"]
        priorities = [b.priority for b in registered_backends()]
        assert priorities == sorted(priorities, reverse=True)

    def test_gather_is_always_available(self):
        assert "gather" in {b.name for b in available_backends()}
        assert get_backend("gather").requires() is None

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="gather"):
            get_backend("nope")
        with pytest.raises(KeyError, match="unknown execution backend"):
            resolve_backend("nope")

    def test_duplicate_registration_rejected(self):
        gather = get_backend("gather")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(gather)
        # replace=True shadows; re-registering restores the original.
        assert register_backend(gather, replace=True) is gather
        assert get_backend("gather") is gather

    def test_invalid_names_rejected(self):
        class Nameless(FailingBackend):
            name = ""

        class Reserved(FailingBackend):
            name = "auto"

        for bad in (Nameless(), Reserved()):
            with pytest.raises(ValueError, match="invalid backend name"):
                register_backend(bad)

    def test_unregister_then_reregister(self):
        failing = FailingBackend()
        register_backend(failing)
        try:
            assert get_backend("failing") is failing
        finally:
            unregister_backend("failing")
        with pytest.raises(KeyError):
            get_backend("failing")
        unregister_backend("failing")  # idempotent

    def test_csr_refuses_layouts_outside_its_envelope(self, rng):
        __, plan64 = build_plan(rng, index="int64")
        with pytest.raises(BackendCapabilityError,
                           match="int64/float64"):
            resolve_backend("csr", plan=plan64, op="spmv")
        x = np.random.default_rng(5).random(plan64.shape[1])
        with pytest.raises(BackendCapabilityError):
            plan64.spmv(x, backend="csr")

    def test_auto_falls_back_to_gather_off_the_fast_path(self, rng):
        """Layouts the csr kernels exclude negotiate to gather (or
        numba where installed) instead of failing."""
        __, plan = build_plan(rng, index="int64", precision="float32")
        engine = resolve_backend(None, plan=plan, op="spmv")
        assert engine.name == ("numba" if numba_available()
                               else "gather")

    @pytest.mark.skipif(numba_available(),
                        reason="numba installed in this env")
    def test_unavailable_backend_raises_soft_error(self, rng):
        """numba registers for discoverability but never dispatches
        while its dependency is missing."""
        assert get_backend("numba").is_available() is False
        with pytest.raises(BackendUnavailable, match="numba"):
            resolve_backend("numba")
        __, plan = build_plan(rng)
        x = np.random.default_rng(5).random(plan.shape[1])
        with pytest.raises(BackendUnavailable):
            plan.spmv(x, backend="numba")

    def test_resolved_engine_instance_passes_through(self, rng):
        __, plan = build_plan(rng)
        gather = get_backend("gather")
        assert resolve_backend(gather, plan=plan, op="spmm") is gather

    def test_prepared_state_is_memoized_per_backend(self, rng):
        __, plan = build_plan(rng)
        x = np.random.default_rng(5).random(plan.shape[1])
        plan.spmv(x, backend="gather")
        plan.spmv(x, backend="gather")
        state = plan._scratch["backend::gather"]
        plan.spmv(x, backend="gather")
        assert plan._scratch["backend::gather"] is state


# -- guard fallback through a hostile backend --------------------------


class TestGuardWithFailingBackend:
    def test_spmv_falls_back_to_naive(self, rng, failing_backend):
        spasm = encode(integer_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(spasm, backend="failing")
        out = guard.spmv(x)
        assert np.array_equal(out, spasm.spmv_naive(x))
        actions = [e.action for e in guard.log.events]
        assert "retry" in actions and "fallback" in actions
        # Detection events attribute the incident to the backend.
        assert any(e.backend == "failing" for e in guard.log.events)

    def test_spmv_raises_when_fallback_disabled(
        self, rng, failing_backend
    ):
        spasm = encode(integer_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(
            spasm, config=GuardConfig(fallback=False, backoff_s=0.0),
            backend="failing",
        )
        with pytest.raises(IntegrityError, match="fallback"):
            guard.spmv(x)

    def test_batch_falls_back_to_naive(self, rng, failing_backend):
        spasm = encode(integer_coo(rng, 64))
        xs = np.random.default_rng(9).random((3, spasm.shape[1]))
        guard = ExecutionGuard(spasm, backend="failing")
        out = guard.spmv_batch(xs)
        expected = np.stack([spasm.spmv_naive(row) for row in xs])
        assert np.array_equal(out, expected)
        assert any(e.action == "fallback" for e in guard.log.events)

    def test_clean_backend_logs_no_incidents(self, rng):
        spasm = encode(integer_coo(rng, 64))
        x = np.random.default_rng(9).random(spasm.shape[1])
        guard = ExecutionGuard(spasm, backend="gather")
        out = guard.spmv(x)
        assert np.array_equal(out, spasm.spmv_naive(x))
        assert len(guard.log) == 0


# -- prepared-state fault injection ------------------------------------


class TestBackendStateFaults:
    def test_flip_lands_in_memoized_state(self, rng):
        """The byte flip hits exactly the scratch a later dispatch
        consumes, and clearing the memo restores clean output."""
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x, backend="gather")

        injector = FaultInjector(seed=21)
        record = injector.flip_backend_state(plan, "gather")
        assert record is not None
        assert record.surface == "backend"
        assert record.details["backend"] == "gather"
        assert record.details["array"] in ("rows", "cols")

        # The corrupted scratch either diverges or trips a bounds
        # check — it must never silently reproduce the clean result.
        try:
            corrupted = plan.spmv(x, backend="gather")
        except (IndexError, ValueError):
            corrupted = None
        if corrupted is not None:
            assert not np.array_equal(corrupted, clean)

        plan._scratch.clear()
        assert np.array_equal(plan.spmv(x, backend="gather"), clean)

    @pytest.mark.skipif(not csr_kernels_available(),
                        reason="scipy kernels unavailable")
    def test_flip_reaches_csr_row_pointer(self, rng):
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        x = np.random.default_rng(13).random(plan.shape[1])
        plan.spmv(x, backend="csr")  # materialize the prepared state

        injector = FaultInjector(seed=5)
        record = injector.flip_backend_state(plan, "csr")
        assert record is not None
        assert record.details["array"] == "indptr"
        indptr = plan._scratch["backend::csr"]
        fresh = get_backend("csr").prepare(plan)
        assert not np.array_equal(indptr, fresh)


# -- the plan's dispatch memo ------------------------------------------


class _CountingBackend(GatherBackend):
    """The gather kernels under a higher priority, counting calls."""

    name = "counting"
    priority = 99

    def __init__(self):
        self.calls = 0

    def spmv(self, plan, state, x, out, lo, hi):
        self.calls += 1
        super().spmv(plan, state, x, out, lo, hi)


class TestDispatchMemo:
    def test_registering_redirects_auto_then_unregister_restores(
        self, rng
    ):
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        x = np.random.default_rng(3).random(plan.shape[1])
        clean = plan.spmv(x)  # memoizes the auto resolution
        auto = resolve_backend(None, plan=plan, op="spmv")
        counting = register_backend(_CountingBackend())
        try:
            assert np.array_equal(plan.spmv(x), clean)
            assert counting.calls == 1
        finally:
            unregister_backend(counting.name)
        assert np.array_equal(plan.spmv(x), clean)
        assert counting.calls == 1
        assert plan._dispatch(None, "spmv")[0] is auto

    def test_auto_and_none_share_one_entry(self, rng):
        __, plan = build_plan(rng)
        engine, state = plan._dispatch(None, "spmv")
        again = plan._dispatch("auto", "spmv")
        assert again[0] is engine and again[1] is state

    def test_flip_lands_in_state_the_memo_hands_out(self, rng):
        spasm = encode(integer_coo(rng, 64))
        plan = spasm.plan()
        x = np.random.default_rng(13).random(plan.shape[1])
        clean = plan.spmv(x, backend="gather")  # memoized dispatch
        FaultInjector(seed=21).flip_backend_state(plan, "gather")
        engine, state = plan._dispatch("gather", "spmv")
        assert state is plan._backend_state(engine)
        try:
            corrupted = plan.spmv(x, backend="gather")
        except (IndexError, ValueError):
            corrupted = None
        if corrupted is not None:
            assert not np.array_equal(corrupted, clean)

    def test_release_scratch_drops_the_memo(self, rng):
        __, plan = build_plan(rng)
        x = np.random.default_rng(5).random(plan.shape[1])
        clean = plan.spmv(x, backend="gather")
        state = plan._dispatch("gather", "spmv")[1]
        plan.release_scratch()
        assert not plan._scratch
        assert plan._dispatch("gather", "spmv")[1] is not state
        assert np.array_equal(plan.spmv(x, backend="gather"), clean)
