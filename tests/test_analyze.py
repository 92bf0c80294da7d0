"""Tests for the ``plan.*`` rules of :mod:`repro.verify`.

Three layers are exercised: the pure symbolic certificate of
:mod:`repro.exec.policy` (boundary behaviour at the int32 capacity,
via hypothesis), the plan rules over real compiled plans (a clean
plan yields no diagnostic; fault-injected plans are refuted with
pinpointed witnesses), and the plan contract shared by ``validate()``,
the rules and the guard (one table of corruptions).
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpasmCompiler, candidate_portfolios, encode_spasm
from repro.exec.plan import ExecutionPlan
from repro.exec.policy import (
    certify_index_width,
    index_dtype_for,
    plan_checksum,
)
from repro.resilience import ExecutionGuard, FaultInjector
from repro.synth import load_workload
from repro.verify import REGISTRY, VerifyContext, verify_plan
from repro.verify.plan_rules import DEFAULT_JOBS_GRID
from tests.conftest import random_structured_coo

INT32_MAX = int(np.iinfo(np.int32).max)

PLAN_RULES = ["plan.coverage", "plan.index_width", "plan.shards"]


@pytest.fixture(scope="module")
def program():
    """A compiled program with an attached plan (module-shared)."""
    coo = load_workload("stormG2_1000", scale=0.5)
    return SpasmCompiler(build_plan=True).compile(coo)


@pytest.fixture(scope="module")
def clean_report(program):
    return verify_plan(program.plan)


def mutable_plan(program):
    """A deep-enough copy of the program's plan to corrupt safely."""
    base = program.plan
    return dataclasses.replace(
        base,
        cols=base.cols.copy(),
        vals=base.vals.copy(),
        indptr=base.indptr.copy(),
    )


def with_checksum(plan):
    """The same plan with its checksum recomputed over current arrays.

    Corruption tests use this so only the structural rules of the
    plan contract — not the checksum — can reject the plan.
    """
    return dataclasses.replace(
        plan,
        checksum=plan_checksum(
            plan.cols, plan.vals, plan.indptr, plan.shape,
        ),
    )


def refutation(report, rule_id):
    """The single error diagnostic ``rule_id`` reported."""
    found = [d for d in report.errors if d.rule_id == rule_id]
    assert len(found) == 1, report.render()
    return found[0]


def check_shards(plan):
    """Run ``plan.shards`` alone (stub plans lack the other arrays)."""
    return list(REGISTRY["plan.shards"].check(VerifyContext(plan=plan)))


class TestCleanProofs:
    def test_all_six_obligations_proved(self, clean_report):
        """Every plan rule runs, and a clean plan yields nothing."""
        assert clean_report.rules_run == PLAN_RULES
        assert clean_report.diagnostics == []
        assert clean_report.ok

    def test_index_width_carries_certified_bound(self, program,
                                                 clean_report):
        plan = program.plan
        cert = certify_index_width(
            plan.shape, plan.n_slots, plan.cols.dtype
        )
        assert "int32 layout certified" in cert.bound()
        assert cert.headroom >= 0 and cert.compact_sufficient
        assert "plan.index_width" in clean_report.rules_run

    def test_shards_quantify_over_jobs_grid(self, program):
        """The grid is :data:`DEFAULT_JOBS_GRID` plus the auto pick."""
        plan = program.plan
        asked = []

        class Recording:
            shape = plan.shape

            def _auto_jobs(self):
                return 5

            def shard_bounds(self, jobs):
                asked.append(jobs)
                return plan.shard_bounds(jobs)

        assert check_shards(Recording()) == []
        assert asked == sorted(set(DEFAULT_JOBS_GRID) | {5})

    def test_image_skipped_without_image(self, clean_report):
        assert not any(
            r.startswith("mem.") for r in clean_report.rules_run
        )

    def test_summary_and_render(self, clean_report, program):
        assert clean_report.summary() == (
            "0 errors, 0 warnings (3 rules run)"
        )
        plan = mutable_plan(program)
        FaultInjector(0).flip_plan_array(plan)
        text = verify_plan(with_checksum(plan)).render()
        assert "ERROR plan.coverage" in text

    def test_report_dict_roundtrip(self, program):
        """Witness and value land in ``details`` as JSON scalars."""
        plan = mutable_plan(program)
        FaultInjector(11).flip_plan_array(plan)
        report = verify_plan(with_checksum(plan))
        assert json.loads(report.to_json()) == report.as_dict()
        details = refutation(report, "plan.index_width").details
        assert set(details) == {"witness", "value"}


class TestCertificate:
    def test_matches_plan_extent(self, program):
        plan = program.plan
        cert = certify_index_width(
            plan.shape, plan.n_slots, plan.cols.dtype
        )
        assert cert.extent == max(
            plan.shape[0], plan.shape[1], plan.n_slots
        )
        assert cert.safe and cert.compact_sufficient
        assert str(cert.capacity) in cert.bound()

    def test_rejects_non_index_dtype(self):
        with pytest.raises(ValueError):
            certify_index_width((4, 4), 4, np.float32)

    def test_int64_certifies_past_int32(self):
        cert = certify_index_width(
            (INT32_MAX + 10, 8), INT32_MAX + 10, np.int64
        )
        assert cert.safe and not cert.compact_sufficient
        assert cert.dtype == "int64"

    @settings(max_examples=200, deadline=None)
    @given(
        nrows=st.integers(1, 2**40),
        ncols=st.integers(1, 2**40),
        slot_delta=st.integers(-4, 4),
    )
    def test_flips_exactly_with_index_dtype_for(
        self, nrows, ncols, slot_delta
    ):
        """The symbolic verdict and the layout heuristic agree at and
        around the int32 capacity — no allocation involved."""
        n_slots = max(1, INT32_MAX + slot_delta)
        cert = certify_index_width((nrows, ncols), n_slots, np.int32)
        compact = index_dtype_for((nrows, ncols), n_slots)
        assert cert.compact_sufficient == (
            compact == np.dtype(np.int32)
        )
        assert cert.safe == cert.compact_sufficient
        assert cert.headroom == INT32_MAX - max(nrows, ncols, n_slots)

    @settings(max_examples=50, deadline=None)
    @given(delta=st.integers(-3, 3))
    def test_boundary_is_exact(self, delta):
        extent = INT32_MAX + delta
        cert = certify_index_width((extent, 1), 1, np.int32)
        assert cert.safe == (delta <= 0)
        assert cert.compact_sufficient == (delta <= 0)


class TestFaultRefutation:
    """Seeded bit flips produce refutations with pinpointed witnesses.

    The seeds are pinned: ``FaultInjector`` is deterministic, so seed 0
    always lands in ``indptr`` (a coverage violation) and seed 11 in
    ``cols`` (an out-of-range gather index) for this workload.
    """

    def test_seed0_refutes_coverage(self, program):
        plan = mutable_plan(program)
        record = FaultInjector(0).flip_plan_array(plan)
        assert record.location.startswith("indptr")
        report = verify_plan(with_checksum(plan))
        d = refutation(report, "plan.coverage")
        assert re.search(r"indptr\[\d+\]", d.details["witness"])
        assert not report.ok

    def test_seed11_refutes_index_width(self, program):
        plan = mutable_plan(program)
        record = FaultInjector(11).flip_plan_array(plan)
        assert record.location.startswith("cols")
        d = refutation(verify_plan(with_checksum(plan)),
                       "plan.index_width")
        assert re.match(r"cols\[\d+\]", d.details["witness"])
        assert d.details["value"] >= program.plan.shape[1]
        assert "out of bounds" in d.message

    def test_refutation_survives_checksum_repair(self, program):
        """Recomputing the checksum over corrupted arrays does not
        rescue the plan: the refutation is structural, not a hash
        mismatch, and carries a witness the checksum never could."""
        plan = mutable_plan(program)
        FaultInjector(0).flip_plan_array(plan)
        repaired = with_checksum(plan)
        assert all("checksum" not in p for p in repaired.validate())
        report = verify_plan(repaired)
        assert not report.ok
        assert refutation(report, "plan.coverage").details["witness"]

    def test_constant_row_pointer_refutes_coverage(self, program):
        """A row pointer stuck at 0 puts every slot outside every
        row: the kernel would skip the whole stream."""
        plan = mutable_plan(program)
        plan.indptr[:] = 0
        d = refutation(verify_plan(with_checksum(plan)), "plan.coverage")
        assert "slots would be skipped" in d.message
        assert d.details["witness"] == f"indptr[{plan.shape[0]}]"

    def test_overlapping_shards_refute(self):
        """The shard rule catches write-set races per jobs count
        (driven through a stub — real plans this small collapse to one
        shard, which is trivially race-free)."""

        class Sharded:
            shape = (4, 4)

            def _auto_jobs(self):
                return 1

            def shard_bounds(self, jobs):
                return (
                    [(0, 4)] if jobs == 1 else [(0, 3), (2, 4)]
                )

        [d] = check_shards(Sharded())
        assert "jobs=2" in d.message and "race" in d.message
        assert d.details["jobs"] == 2

    def test_shard_gap_refutes(self):
        class Gapped:
            shape = (4, 4)

            def _auto_jobs(self):
                return 2

            def shard_bounds(self, jobs):
                return [(0, 4)] if jobs == 1 else [(0, 2), (3, 4)]

        [d] = check_shards(Gapped())
        assert "gap between shards 0 and 1" in d.message
        assert d.details["rows"] == [2, 3]

    def test_mixed_index_dtypes_refute(self, program):
        base = program.plan
        mixed = dataclasses.replace(
            base, indptr=base.indptr.astype(np.int64)
        )
        d = refutation(verify_plan(mixed), "plan.index_width")
        assert "disagree on width" in d.message

    def test_image_descriptor_drift_refutes(self, program):
        from repro.hw.memory_image import pack_images
        from repro.verify import verify_memory_image

        spasm = program.spasm
        image = pack_images(spasm, program.hw_config)
        assert verify_memory_image(image, spasm=spasm).ok

        descriptors = [list(d) for d in image.descriptors]
        pe = next(i for i, d in enumerate(descriptors) if d)
        descriptors[pe].pop()
        drifted = dataclasses.replace(image, descriptors=descriptors)
        report = verify_memory_image(drifted, spasm=spasm)
        [d] = [e for e in report.errors if e.rule_id == "mem.descriptors"]
        assert d.location.pe == pe
        assert "disagrees with the schedule" in d.message


def _set(name, index, value):
    """A corruption writing ``value`` at ``plan.<name>[index]``."""
    def corrupt(plan):
        arr = getattr(plan, name).copy()
        arr[index] = value(plan) if callable(value) else value
        return dataclasses.replace(plan, **{name: arr})
    return corrupt


def _retype(dtype, names=("cols", "indptr")):
    def corrupt(plan):
        return dataclasses.replace(plan, **{
            name: getattr(plan, name).astype(dtype) for name in names
        })
    return corrupt


def _reverse_first_rows(plan):
    """Swap the first two distinct row offsets past row 0: the pointer
    runs backwards there."""
    indptr = plan.indptr.copy()
    i = 1 + int(np.flatnonzero(np.diff(indptr[1:]) > 0)[0])
    indptr[i], indptr[i + 1] = indptr[i + 1], indptr[i]
    return dataclasses.replace(plan, indptr=indptr)


def _empty_trailing_segment(plan):
    """Drop the last non-empty row's slots but keep its offsets."""
    cut = int(plan.indptr[np.flatnonzero(np.diff(plan.indptr))[-1]])
    return dataclasses.replace(plan, cols=plan.cols[:cut].copy(),
                               vals=plan.vals[:cut].copy())


def _no_segments(plan):
    """Slots, but a row pointer that gives no row any of them."""
    return dataclasses.replace(plan, indptr=np.zeros_like(plan.indptr))


def _stale_checksum(plan):
    vals = plan.vals.copy()
    vals[0] += 1.0
    return dataclasses.replace(plan, vals=vals)


#: (case id, corruption, violated invariant, witness pattern).  Every
#: case but ``checksum`` is made checksum-consistent, so only the
#: structural rules of the plan contract can reject it.
CORRUPTIONS = [
    ("mixed_index_dtypes", _retype(np.int64, ("indptr",)),
     "index_width", r"dtype"),
    ("int16_indices", _retype(np.int16), "index_width", r"dtype"),
    ("cols_out_of_range", _set("cols", 5, lambda p: p.shape[1]),
     "index_width", r"cols\[5\]"),
    ("first_start_nonzero", _set("indptr", 0, 1),
     "coverage", r"indptr\[0\]"),
    ("starts_not_increasing",
     _set("indptr", 2, lambda p: p.indptr[1] - 1),
     "coverage", r"indptr\[2\]"),
    ("reversed_rows", _reverse_first_rows, "coverage", r"indptr\[\d+\]"),
    ("rows_past_nrows", _set("indptr", -1, lambda p: p.n_slots - 1),
     "coverage", r"indptr\[\d+\]"),
    ("empty_trailing_segment", _empty_trailing_segment,
     "coverage", r"indptr\[\d+\]"),
    ("slots_without_segments", _no_segments, "coverage", r"indptr\[\d+\]"),
    ("nan_value", _set("vals", 3, np.nan), "values", None),
    ("checksum_mismatch", _stale_checksum, "checksum", None),
]


@pytest.fixture
def small_spasm(rng):
    coo = random_structured_coo(rng, 96, "mixed")
    return encode_spasm(coo, candidate_portfolios()[0], 32)


class TestPlanContract:
    """``validate()``, the ``plan.index_width`` and ``plan.coverage``
    rules and the guard apply one plan contract
    (:mod:`repro.exec.policy`) and so agree on every corruption."""

    @pytest.mark.parametrize(
        "corrupt, invariant, witness",
        [case[1:] for case in CORRUPTIONS],
        ids=[case[0] for case in CORRUPTIONS],
    )
    def test_corruption_rejected_alike(self, small_spasm, rng, corrupt,
                                       invariant, witness):
        from repro.exec.policy import plan_findings

        pristine = small_spasm.plan()
        x = rng.random(small_spasm.shape[1])
        reference = pristine.spmv(x)
        plan = corrupt(pristine)
        if invariant != "checksum":
            plan = with_checksum(plan)

        problems = plan.validate()
        assert problems
        assert [f.invariant for f in plan_findings(plan)] == [invariant]

        report = verify_plan(plan)
        for name in ("index_width", "coverage"):
            found = [
                d for d in report.errors if d.rule_id == f"plan.{name}"
            ]
            assert bool(found) == (name == invariant)
            if found:
                assert re.fullmatch(witness, found[0].details["witness"])

        small_spasm._plan = plan
        guard = ExecutionGuard(small_spasm)
        assert np.array_equal(guard.spmv(x), reference)
        detections = [
            e for e in guard.log.events
            if e.kind == "detect" and e.surface == "plan"
        ]
        assert detections and problems[0] in detections[0].detail

    def test_zero_slot_segment_rejected_everywhere(self):
        """A row pointer that gives a row a slot the plan does not
        hold makes the kernel read past the arrays: every surface
        rejects it, while empty rows over no slots are clean."""

        def plan_of(indptr):
            empty = np.zeros(0, dtype=np.int32)
            arrays = dict(
                cols=empty, vals=np.zeros(0),
                indptr=np.array(indptr, dtype=np.int32),
            )
            return ExecutionPlan(
                shape=(3, 3), digest="x" * 64, source_nnz=0,
                checksum=plan_checksum(shape=(3, 3), **arrays),
                **arrays,
            )

        bad = plan_of([0, 0, 1, 1])
        assert bad.validate()
        assert refutation(verify_plan(bad), "plan.coverage")

        empty = plan_of([0, 0, 0, 0])
        assert empty.validate() == []
        assert verify_plan(empty).diagnostics == []

    def test_build_emits_no_empty_segment(self):
        rows = np.array([0, 1, 2])
        zeros = ExecutionPlan.from_slots(
            (3, 3), rows, rows, np.zeros(3), digest="x" * 64,
            source_nnz=0,
        )
        assert np.array_equal(zeros.indptr, np.zeros(4))
        assert zeros.validate() == []
