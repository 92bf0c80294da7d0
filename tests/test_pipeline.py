"""Tests for the compile function's stages and their trace
(repro.core.framework, repro.pipeline)."""

import json

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios
from repro.hw import SPASM_3_4, SPASM_4_1
from repro.matrix import COOMatrix
from repro.pipeline import PipelineTrace, StageEvent, matrix_digest
from tests.conftest import random_structured_coo

TILE_SIZES = (16, 32, 64)
STAGES = ["analysis", "selection", "decomposition", "schedule", "encode"]


@pytest.fixture(scope="module")
def compiler():
    return SpasmCompiler(tile_sizes=TILE_SIZES)


@pytest.fixture(scope="module")
def program(compiler):
    rng = np.random.default_rng(7)
    return compiler.compile(random_structured_coo(rng, 96, "mixed"))


class TestRunnerContracts:
    """The stages each compile runs, in order, read off its trace."""

    def test_build_passes_default_sequence(self, rng, compiler):
        """Fixed ablation knobs replace a stage's work, not the stage."""
        coo = random_structured_coo(rng, 64, "mixed")
        fixed = compiler.compile(
            coo, fixed_portfolio=candidate_portfolios()[0],
            fixed_tile_size=32, fixed_hw_config=SPASM_4_1)
        assert [e.name for e in fixed.trace] == STAGES
        for stage in ("selection", "schedule"):
            assert "(ablation)" in fixed.trace.event(stage).note

    def test_verify_pass_mounted(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        verified = SpasmCompiler(tile_sizes=TILE_SIZES, verify=True)
        assert [e.name for e in verified.compile(coo).trace] == \
            STAGES + ["verify"]
        both = SpasmCompiler(tile_sizes=TILE_SIZES, verify=True,
                             build_plan=True).compile(coo)
        assert [e.name for e in both.trace] == STAGES + ["verify", "plan"]
        planned = SpasmCompiler(tile_sizes=TILE_SIZES,
                                build_plan=True).compile(coo)
        assert [e.name for e in planned.trace] == STAGES + ["plan"]
        assert planned.plan is planned.spasm._plan
        assert planned.trace.event("plan").note == planned.plan.describe()

    def test_pattern_size_checked_before_any_stage(self, small_coo):
        with pytest.raises(ValueError, match="positive"):
            SpasmCompiler(k=0).compile(small_coo)
        with pytest.raises(ValueError, match="32-bit"):
            SpasmCompiler(k=6).compile(small_coo)


class TestTrace:
    def test_every_stage_traced(self, program):
        trace = program.trace
        assert [e.name for e in trace] == STAGES
        assert all(e.wall_ms >= 0 for e in trace)

    def test_stage_summaries(self, program):
        histogram = program.histogram
        assert program.trace.event("analysis").note == (
            f"{histogram.n_distinct} distinct patterns over "
            f"{histogram.total} submatrices"
        )
        spasm = program.spasm
        assert program.trace.event("encode").note == (
            f"{spasm.n_groups} groups, padding rate "
            f"{spasm.padding_rate:.2%}"
        )

    def test_missing_stage_helpers(self, program):
        trace = program.trace
        assert not trace.has_stage("verify")
        assert trace.stage_ms("verify") == 0.0
        with pytest.raises(KeyError):
            trace.event("verify")

    def test_total_and_json_roundtrip(self, program):
        trace = program.trace
        assert trace.total_ms == pytest.approx(
            sum(e.wall_ms for e in trace)
        )
        payload = json.loads(trace.to_json())
        assert [e["name"] for e in payload["events"]] == [
            e.name for e in trace
        ]
        assert payload["total_ms"] == pytest.approx(trace.total_ms)

    def test_render_lists_stages(self, program):
        text = program.trace.render()
        for stage in ("analysis", "selection", "schedule", "total"):
            assert stage in text

    def test_report_is_view_over_trace(self, program):
        """Table VIII's four columns are stage times of the trace."""
        trace = program.trace
        table08 = sum(trace.stage_ms(stage) for stage in STAGES[:4])
        assert table08 == pytest.approx(
            trace.total_ms - trace.stage_ms("encode"))
        assert table08 <= trace.total_ms

    def test_trace_event_to_dict(self):
        event = StageEvent(name="x", wall_ms=1.5, note="n")
        d = event.to_dict()
        assert d == {"name": "x", "wall_ms": 1.5, "note": "n"}
        assert PipelineTrace(events=(event,)).to_dict()["events"] == [d]


class TestArtifactReuse:
    def test_masks_computed_exactly_once(self, rng, monkeypatch):
        """Step ①'s submatrix scan must be the only one per compile."""
        import repro.core.format as format_mod
        import repro.core.framework as framework_mod
        import repro.core.patterns as patterns_mod

        real = patterns_mod.submatrix_masks
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (patterns_mod, format_mod, framework_mod):
            monkeypatch.setattr(mod, "submatrix_masks", counting)

        coo = random_structured_coo(rng, 96, "mixed")
        program = SpasmCompiler(tile_sizes=TILE_SIZES).compile(coo)
        assert len(calls) == 1
        x = rng.random(coo.shape[1])
        assert np.allclose(program.spasm.spmv(x), coo.spmv(x))

    def test_masks_once_even_with_ablations(self, rng, monkeypatch):
        import repro.core.format as format_mod
        import repro.core.framework as framework_mod
        import repro.core.patterns as patterns_mod

        real = patterns_mod.submatrix_masks
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (patterns_mod, format_mod, framework_mod):
            monkeypatch.setattr(mod, "submatrix_masks", counting)

        coo = random_structured_coo(rng, 64, "mixed")
        SpasmCompiler(tile_sizes=TILE_SIZES).compile(
            coo,
            fixed_portfolio=candidate_portfolios()[0],
            fixed_tile_size=32,
            fixed_hw_config=SPASM_4_1,
        )
        assert len(calls) == 1


class TestDeduplicatedContract:
    def test_duplicate_coordinate_rejected(self):
        coo = COOMatrix([0, 0, 5], [0, 0, 7], [1.0, 2.0, 3.0], (64, 64),
                        dedup=False)
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            SpasmCompiler(tile_sizes=TILE_SIZES).compile(coo)

    def test_first_duplicate_named(self):
        # Unsorted entries; (9, 2) repeats in the first submatrix (in
        # key order) that holds a repeat.
        coo = COOMatrix([40, 9, 41, 9, 40], [40, 2, 41, 2, 40],
                        [1.0, 2.0, 3.0, 4.0, 5.0], (64, 64), dedup=False)
        with pytest.raises(ValueError, match=r"\(9, 2\)"):
            SpasmCompiler(tile_sizes=TILE_SIZES).compile(coo)

    def test_explicit_zeros_without_dedup_compile(self):
        coo = COOMatrix([3, 0, 5, 9, 33], [1, 0, 7, 2, 60],
                        [0.0, 2.0, 3.0, 0.0, -1.5], (64, 64), dedup=False)
        program = SpasmCompiler(tile_sizes=TILE_SIZES).compile(coo)
        x = np.arange(64, dtype=np.float64) + 1.0
        assert np.array_equal(program.spasm.spmv(x), coo.spmv(x))
        assert np.array_equal(program.spasm.spmv_naive(x), coo.spmv(x))
        assert program.spasm.source_nnz == coo.nnz


class TestVerifyPass:
    def test_verify_stage_runs_clean(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        program = SpasmCompiler(
            tile_sizes=TILE_SIZES, verify=True
        ).compile(coo)
        assert program.trace.has_stage("verify")
        assert "0 errors" in program.trace.event("verify").note


class TestFacadeBehavior:
    def test_fixed_hw_config_type(self, rng, compiler):
        coo = random_structured_coo(rng, 64, "mixed")
        program = compiler.compile(
            coo, fixed_tile_size=32, fixed_hw_config=SPASM_3_4
        )
        assert program.hw_config is SPASM_3_4
        assert program.schedule is None
        assert program.trace.has_stage("schedule")  # traced, just fixed

    def test_trace_attached_to_program(self, program):
        assert isinstance(program.trace, PipelineTrace)
        assert len(program.trace) == 5


class TestMatrixDigest:
    def test_matrix_digest_content_addressed(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        clone = type(coo).from_dense(coo.to_dense())
        assert matrix_digest(coo) == matrix_digest(clone)
        other = random_structured_coo(rng, 64, "mixed")
        assert matrix_digest(coo) != matrix_digest(other)
