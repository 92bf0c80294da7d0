"""Tests for the symbolic static-analysis subsystem (``repro.analyze``).

Four layers are exercised: the pure symbolic certificate (boundary
behaviour at the int32 capacity, via hypothesis), the five obligation
checkers over real compiled plans (clean proofs and fault-injected
refutations with pinpointed witnesses), the plan contract of
:mod:`repro.exec.policy` shared by ``validate()``, the obligations and
the guard (one table of corruptions), and the cacheable
:class:`AnalyzePass`.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import (
    OBLIGATION_IDS,
    PROVED,
    REFUTED,
    SKIPPED,
    AnalysisReport,
    Obligation,
    analyze_plan,
    analyze_program,
    check_image_bounds,
    check_index_width,
    check_segment_coverage,
    check_shard_disjointness,
)
from repro.core import SpasmCompiler, candidate_portfolios, encode_spasm
from repro.exec.plan import ExecutionPlan
from repro.exec.policy import (
    certify_index_width,
    index_dtype_for,
    plan_checksum,
)
from repro.resilience import ExecutionGuard, FaultInjector
from repro.synth import load_workload
from tests.conftest import random_structured_coo

INT32_MAX = int(np.iinfo(np.int32).max)


@pytest.fixture(scope="module")
def program():
    """A compiled program with an attached plan (module-shared)."""
    coo = load_workload("stormG2_1000", scale=0.5)
    return SpasmCompiler(build_plan=True).compile(coo)


@pytest.fixture(scope="module")
def clean_report(program):
    return analyze_program(program, matrix="stormG2_1000")


def mutable_plan(program):
    """A deep-enough copy of the program's plan to corrupt safely."""
    base = program.plan
    return dataclasses.replace(
        base,
        cols=base.cols.copy(),
        vals=base.vals.copy(),
        seg_starts=base.seg_starts.copy(),
        seg_rows=base.seg_rows.copy(),
    )


def with_checksum(plan):
    """The same plan with its checksum recomputed over current arrays.

    Corruption tests use this so only the structural rules of the
    plan contract — not the checksum — can reject the plan.
    """
    return dataclasses.replace(
        plan,
        checksum=plan_checksum(
            plan.cols, plan.vals, plan.seg_starts, plan.seg_rows,
            plan.shape,
        ),
    )


class TestCleanProofs:
    def test_all_six_obligations_proved(self, clean_report):
        """Every obligation of :data:`OBLIGATION_IDS` (five) proves."""
        assert [
            o.obligation_id for o in clean_report.obligations
        ] == list(OBLIGATION_IDS)
        assert all(o.status == PROVED for o in clean_report.obligations)
        assert clean_report.ok and not clean_report.refuted

    def test_index_width_carries_certified_bound(self, clean_report):
        o = clean_report.obligation("index_width")
        assert o.bound and "int32 layout certified" in o.bound
        assert o.details["headroom"] >= 0
        assert o.details["compact_sufficient"] is True

    def test_shards_quantify_over_jobs_grid(self, clean_report):
        o = clean_report.obligation("shards")
        grid = o.details["jobs_grid"]
        assert 1 in grid and len(grid) >= 7
        assert "bitwise determinism" in o.statement

    def test_image_skipped_without_image(self, program):
        report = analyze_plan(program.plan)
        assert report.obligation("image").status == SKIPPED
        assert report.ok  # skipped is not refuted

    def test_summary_and_render(self, clean_report):
        assert "5 obligations for stormG2_1000" in clean_report.summary()
        text = clean_report.render()
        assert "PROVED" in text and "coverage" in text

    def test_report_dict_roundtrip(self, clean_report):
        clone = AnalysisReport.from_dict(clean_report.as_dict())
        assert clone.as_dict() == clean_report.as_dict()
        assert clone.obligation("coverage").proved

    def test_unknown_obligation_raises(self, clean_report):
        with pytest.raises(KeyError):
            clean_report.obligation("nope")


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
    always lands in ``seg_rows`` (a coverage violation) and seed 11 in
    ``cols`` (an out-of-range gather index) for this workload.
    """

    def test_seed0_refutes_coverage(self, program):
        plan = mutable_plan(program)
        record = FaultInjector(0).flip_plan_array(plan)
        assert record.location.startswith("seg_rows")
        report = analyze_plan(with_checksum(plan))
        o = report.obligation("coverage")
        assert o.refuted
        assert re.search(r"seg_rows\[\d+\]", o.details["witness"])
        assert not report.ok

    def test_seed11_refutes_index_width(self, program):
        plan = mutable_plan(program)
        record = FaultInjector(11).flip_plan_array(plan)
        assert record.location.startswith("cols")
        o = analyze_plan(with_checksum(plan)).obligation("index_width")
        assert o.refuted
        assert re.match(r"cols\[\d+\]", o.details["witness"])
        assert o.details["value"] >= program.plan.shape[1]
        assert "out of bounds" in o.statement

    def test_refutation_survives_checksum_repair(self, program):
        """Recomputing the checksum over corrupted arrays does not
        rescue the plan: the refutation is structural, not a hash
        mismatch, and carries a witness the checksum never could."""
        plan = mutable_plan(program)
        FaultInjector(0).flip_plan_array(plan)
        repaired = with_checksum(plan)
        assert all("checksum" not in p for p in repaired.validate())
        report = analyze_plan(repaired)
        assert not report.ok
        assert report.obligation("coverage").details["witness"]

    def test_constant_seg_rows_refute_coverage(self, program):
        plan = mutable_plan(program)
        plan.seg_rows[:] = 0
        plan = with_checksum(plan)
        o = check_segment_coverage(plan)
        assert o.refuted and "written twice" in o.statement

    def test_overlapping_shards_refute(self):
        """The shard obligation catches write-set races per jobs count
        (driven through a stub — real plans this small collapse to one
        shard, which is trivially race-free)."""

        class Sharded:
            n_segments = 4
            seg_rows = np.array([0, 1, 1, 2])

            def _auto_jobs(self):
                return 1

            def shard_bounds(self, jobs):
                return (
                    [(0, 4)] if jobs == 1 else [(0, 2), (2, 4)]
                )

        o = check_shard_disjointness(Sharded(), jobs_grid=(1, 2))
        assert o.refuted
        assert "jobs=2" in o.statement and "race" in o.statement
        assert o.details["jobs"] == 2

    def test_shard_gap_refutes(self):
        class Gapped:
            n_segments = 4
            seg_rows = np.array([0, 1, 2, 3])

            def _auto_jobs(self):
                return 2

            def shard_bounds(self, jobs):
                return [(0, 4)] if jobs == 1 else [(0, 2), (3, 4)]

        o = check_shard_disjointness(Gapped(), jobs_grid=(1, 2))
        assert o.refuted and "gap or overlap" in o.statement

    def test_mixed_index_dtypes_refute(self, program):
        base = program.plan
        mixed = dataclasses.replace(
            base, seg_rows=base.seg_rows.astype(np.int64)
        )
        o = analyze_plan(mixed).obligation("index_width")
        assert o.refuted and "disagree on width" in o.statement

    def test_image_descriptor_drift_refutes(self, program):
        from repro.hw.memory_image import pack_images

        spasm = program.spasm
        image = pack_images(spasm, program.hw_config)
        assert check_image_bounds(
            image, k=spasm.k, spasm=spasm
        ).proved

        class FakeStream:
            k = spasm.k
            n_groups = int(spasm.n_groups) + 1

        o = check_image_bounds(image, k=spasm.k, spasm=FakeStream())
        assert o.refuted and "descriptors account" in o.statement


def _set(name, index, value):
    """A corruption writing ``value`` at ``plan.<name>[index]``."""
    def corrupt(plan):
        arr = getattr(plan, name).copy()
        arr[index] = value(plan) if callable(value) else value
        return dataclasses.replace(plan, **{name: arr})
    return corrupt


def _retype(dtype, names=("cols", "seg_starts", "seg_rows")):
    def corrupt(plan):
        return dataclasses.replace(plan, **{
            name: getattr(plan, name).astype(dtype) for name in names
        })
    return corrupt


def _reverse_first_rows(plan):
    rows = plan.seg_rows.copy()
    rows[:2] = rows[:2][::-1]
    return dataclasses.replace(plan, seg_rows=rows)


def _empty_trailing_segment(plan):
    """Drop the last segment's slots but keep the segment."""
    cut = int(plan.seg_starts[-1])
    return dataclasses.replace(plan, cols=plan.cols[:cut].copy(),
                               vals=plan.vals[:cut].copy())


def _no_segments(plan):
    return dataclasses.replace(plan, seg_starts=plan.seg_starts[:0],
                               seg_rows=plan.seg_rows[:0])


def _stale_checksum(plan):
    vals = plan.vals.copy()
    vals[0] += 1.0
    return dataclasses.replace(plan, vals=vals)


#: (case id, corruption, violated invariant, witness pattern).  Every
#: case but ``checksum`` is made checksum-consistent, so only the
#: structural rules of the plan contract can reject it.
CORRUPTIONS = [
    ("mixed_index_dtypes", _retype(np.int64, ("seg_rows",)),
     "index_width", r"dtype"),
    ("int16_indices", _retype(np.int16), "index_width", r"dtype"),
    ("cols_out_of_range", _set("cols", 5, lambda p: p.shape[1]),
     "index_width", r"cols\[5\]"),
    ("first_start_nonzero", _set("seg_starts", 0, 1),
     "coverage", r"seg_starts\[0\]"),
    ("starts_not_increasing",
     _set("seg_starts", 2, lambda p: p.seg_starts[1]),
     "coverage", r"seg_starts\[2\]"),
    ("reversed_rows", _reverse_first_rows, "coverage", r"seg_rows\[1\]"),
    ("rows_past_nrows", _set("seg_rows", -1, lambda p: p.shape[0]),
     "coverage", r"seg_rows\[\d+\]"),
    ("empty_trailing_segment", _empty_trailing_segment,
     "coverage", r"seg_starts\[\d+\]"),
    ("slots_without_segments", _no_segments, "coverage", r"seg_starts"),
    ("nan_value", _set("vals", 3, np.nan), "values", None),
    ("checksum_mismatch", _stale_checksum, "checksum", None),
]


@pytest.fixture
def small_spasm(rng):
    coo = random_structured_coo(rng, 96, "mixed")
    return encode_spasm(coo, candidate_portfolios()[0], 32)


class TestPlanContract:
    """``validate()``, the ``index_width`` and ``coverage``
    obligations and the guard apply one plan contract
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

        for check in (check_index_width, check_segment_coverage):
            o = check(plan)
            assert o.refuted == (o.obligation_id == invariant)
            if o.refuted:
                assert re.fullmatch(witness, o.details["witness"])

        small_spasm._plan = plan
        guard = ExecutionGuard(small_spasm)
        assert np.array_equal(guard.spmv(x), reference)
        detections = [
            e for e in guard.log.events
            if e.kind == "detect" and e.surface == "plan"
        ]
        assert detections and problems[0] in detections[0].detail

    def test_zero_slot_segment_rejected_everywhere(self):
        """One segment over zero slots is an empty segment: every
        surface rejects it, while no slots and no segments is clean."""

        def plan_of(starts, rows):
            empty = np.zeros(0, dtype=np.int32)
            arrays = dict(
                cols=empty, vals=np.zeros(0),
                seg_starts=np.array(starts, dtype=np.int32),
                seg_rows=np.array(rows, dtype=np.int32),
            )
            return ExecutionPlan(
                shape=(3, 3), _digest="x" * 64, source_nnz=0,
                checksum=plan_checksum(shape=(3, 3), **arrays),
                **arrays,
            )

        bad = plan_of([0], [1])
        assert bad.validate()
        assert check_segment_coverage(bad).refuted

        empty = plan_of([], [])
        assert empty.validate() == []
        assert check_segment_coverage(empty).proved

    def test_build_emits_no_empty_segment(self):
        rows = np.array([0, 1, 2])
        zeros = ExecutionPlan.from_slots(
            (3, 3), rows, rows, np.zeros(3), digest="x" * 64,
            source_nnz=0,
        )
        assert zeros.n_segments == 0 and zeros.validate() == []


class TestAnalyzePass:
    TILES = (16, 32)

    def test_compile_with_analyze_caches_report(self, rng, tmp_path):
        coo = random_structured_coo(rng, 64, "mixed")
        kwargs = dict(
            tile_sizes=self.TILES, cache_dir=tmp_path, analyze=True
        )
        cold = SpasmCompiler(**kwargs).compile(coo)
        states = {e.name: e.cache for e in cold.trace}
        assert states["analyze"] == "miss"
        warm = SpasmCompiler(**kwargs).compile(coo)
        states = {e.name: e.cache for e in warm.trace}
        assert states["analyze"] == "hit"

    def test_analyze_implies_build_plan(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        program = SpasmCompiler(
            tile_sizes=self.TILES, analyze=True
        ).compile(coo)
        assert program.plan is not None

    def test_refuted_plan_raises_format_error(self, program):
        from repro.core.format import FormatError
        from repro.pipeline import AnalyzePass, ArtifactStore

        plan = mutable_plan(program)
        FaultInjector(0).flip_plan_array(plan)
        store = ArtifactStore()
        store.put("plan", with_checksum(plan))
        with pytest.raises(FormatError, match="refuted"):
            AnalyzePass().run(store)


class TestObligationDataclass:
    def test_dict_roundtrip_preserves_bound_and_details(self):
        o = Obligation(
            "index_width", REFUTED, "boom",
            bound="b", details={"witness": "cols[3]"},
        )
        clone = Obligation.from_dict(o.as_dict())
        assert clone == o
        assert "REFUTED" in clone.render() and "[b]" in clone.render()

    def test_minimal_dict_omits_empty_fields(self):
        payload = Obligation("shards", PROVED, "fine").as_dict()
        assert "bound" not in payload and "details" not in payload
