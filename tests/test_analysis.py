"""Tests for the analysis and reporting layer."""

import math

import numpy as np
import pytest

from repro.analysis.frequency import (
    pattern_cdf_table,
    top_pattern_report,
)
from repro.analysis.metrics import (
    bandwidth_efficiency_table,
    energy_table,
    geomean,
    render_throughput,
    speedup_summary,
    throughput_table,
    utilization_table,
)
from repro.analysis.report import format_table
from repro.analysis.storage_compare import (
    pattern_size_sweep,
    render_storage_comparison,
    spasm_storage_bytes,
    storage_summary,
    suite_storage_reports,
    template_selection_sweep,
)
from repro.baselines import HiSparseModel, SERPENS_A16, SpasmModel
from repro.core import analyze_local_patterns
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def matrices():
    rng = np.random.default_rng(99)
    return [
        ("blocks", g.block_diagonal(32, 4, fill=1.0, seed=1)),
        ("band", g.banded(256, 3, fill=0.8, seed=2)),
        ("mixed", random_structured_coo(rng, 128, "mixed")),
    ]


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_log_identity(self):
        values = [0.5, 2.0, 8.0]
        assert math.log(geomean(values)) == pytest.approx(
            sum(math.log(v) for v in values) / 3
        )


class TestSpeedupSummary:
    def test_fields(self):
        s = speedup_summary([1.0, 2.0, 4.0])
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["geomean"] == pytest.approx(2.0)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yy", 20.25]])
        lines = text.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "20.25" in lines[-1]

    def test_title(self):
        text = format_table(["h"], [["v"]], title="T")
        assert text.startswith("T\n")

    def test_empty_rows(self):
        text = format_table(["h"], [])
        assert "h" in text


class TestThroughputTables(object):
    def test_throughput_structure(self, matrices):
        result = throughput_table(
            matrices, SpasmModel(), [HiSparseModel()]
        )
        assert len(result["rows"]) == 3
        assert set(result["summary"]) == {"HiSparse"}
        assert all(
            s > 0 for s in result["speedups"]["HiSparse"]
        )

    def test_render_throughput(self, matrices):
        result = throughput_table(
            matrices, SpasmModel(), [HiSparseModel()]
        )
        text = render_throughput(result, ["HiSparse"])
        assert "GFLOP/s" in text and "vs HiSparse" in text

    def test_bandwidth_efficiency(self, matrices):
        result = bandwidth_efficiency_table(
            matrices, SpasmModel(), [SERPENS_A16()]
        )
        assert "Serpens_a16" in result["summary"]

    def test_utilization_bounds(self, matrices):
        rows = utilization_table(
            matrices, SpasmModel(), [HiSparseModel()]
        )
        for row in rows:
            for platform in ("SPASM", "HiSparse"):
                assert 0 < row[platform]["bandwidth"] <= 1.0
                assert 0 < row[platform]["compute"] <= 1.0

    def test_energy_table(self, matrices):
        rows = energy_table(matrices, SpasmModel(), [HiSparseModel()])
        names = [r["name"] for r in rows]
        assert "SPASM" in names and "HiSparse" in names
        for row in rows:
            assert row["efficiency"] == pytest.approx(
                row["gflops"] / row["power_w"]
            )


class TestFrequencyAnalysis:
    def test_cdf_table_renders(self, matrices):
        text = pattern_cdf_table(matrices, top_ns=(1, 8))
        assert "top-8" in text
        for name, __ in matrices:
            assert name in text

    def test_top_pattern_report(self, matrices):
        hist = analyze_local_patterns(matrices[0][1])
        text = top_pattern_report("blocks", hist)
        assert "blocks" in text and "100.00%" in text


class TestStorageAnalysis:
    def test_spasm_storage_positive(self, matrices):
        assert spasm_storage_bytes(matrices[0][1]) > 0

    def test_suite_reports_include_spasm(self, matrices):
        reports = suite_storage_reports(matrices)
        assert all("SPASM" in r.bytes_by_format for r in reports)

    def test_summary_fields(self, matrices):
        summary = storage_summary(suite_storage_reports(matrices))
        for fmt, s in summary.items():
            assert s["min"] <= s["geomean"] <= s["max"]

    def test_render(self, matrices):
        text = render_storage_comparison(suite_storage_reports(matrices))
        assert "Table VI" in text

    def test_blocks_spasm_beats_coo_by_2_4(self, matrices):
        # Fully dense 4x4 blocks: SPASM stores 5 bytes/nnz vs COO's 12.
        reports = suite_storage_reports(matrices[:1])
        assert reports[0].improvement("SPASM") == pytest.approx(2.4)

    def test_pattern_size_sweep(self, matrices):
        result = pattern_size_sweep(matrices[:2], ks=(2, 4))
        for per_k in result.values():
            assert set(per_k) == {2, 4}
            assert all(v > 0 for v in per_k.values())

    def test_template_selection_sweep(self, matrices):
        result = template_selection_sweep(matrices[:2])
        for row in result.values():
            assert "dynamic" in row
            finite = [v for k, v in row.items() if k != "dynamic"]
            assert row["dynamic"] == min(finite)
