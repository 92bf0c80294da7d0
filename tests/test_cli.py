"""Tests for the command-line interface."""

import json

import pytest

from repro.analyze import LintFinding
from repro.cli import load_matrix, main


@pytest.fixture
def mtx_file(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n16 16 16\n"
        + "".join(f"{i} {i} 1.0\n" for i in range(1, 17))
    )
    return str(path)


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "mycielskian14" in out and "stormG2_1000" in out

    def test_analyze_workload(self, capsys):
        assert main(["analyze", "t2em", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "distinct patterns" in out
        assert "#1:" in out

    def test_analyze_no_spy(self, capsys):
        assert main(["analyze", "t2em", "--no-spy"]) == 0
        out = capsys.readouterr().out
        assert "+--" not in out

    def test_analyze_mtx_file(self, capsys, mtx_file):
        assert main(["analyze", mtx_file]) == 0
        out = capsys.readouterr().out
        assert "nnz=16" in out

    def test_analyze_pattern_size(self, capsys):
        assert main(
            ["analyze", "t2em", "--pattern-size", "2", "--no-spy"]
        ) == 0
        assert "submatrices" in capsys.readouterr().out

    def test_compile(self, capsys):
        assert main(["compile", "raefsky3", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "portfolio:" in out
        assert "GFLOP/s" in out

    def test_compile_json_includes_trace(self, capsys):
        assert main([
            "compile", "t2em", "--scale", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == "t2em"
        assert payload["tile_size"] > 0
        assert payload["report_ms"]["total"] > 0
        stages = [e["name"] for e in payload["trace"]["events"]]
        assert stages == [
            "analysis", "selection", "decomposition", "schedule",
            "encode",
        ]

    def test_compile_trace_file(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main([
            "compile", "t2em", "--scale", "0.2",
            "--trace", str(trace_file),
        ]) == 0
        capsys.readouterr()
        trace = json.loads(trace_file.read_text())
        assert trace["total_ms"] > 0
        assert {e["cache"] for e in trace["events"]} == {"off"}

    def test_compile_cache_dir_cold_then_warm(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = [
            "compile", "t2em", "--scale", "0.2", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        assert "analysis=miss" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "analysis=hit" in out and "schedule=hit" in out

    def test_compile_jobs_and_verify(self, capsys):
        assert main([
            "compile", "t2em", "--scale", "0.2", "--jobs", "2",
            "--verify", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["events"][-1]["name"] == "verify"

    def test_storage(self, capsys):
        assert main(["storage", "t2em", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "SPASM" in out and "COO" in out

    def test_compare(self, capsys):
        assert main(["compare", "t2em", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Serpens_a24" in out and "RTX 3090" in out


class TestAnalyzeProofs:
    def test_single_matrix_proofs(self, capsys):
        assert main([
            "analyze", "t2em", "--proofs", "--scale", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out and "REFUTED" not in out
        assert "all proof obligations hold" in out

    def test_proofs_json_has_six_obligations(self, capsys):
        assert main([
            "analyze", "t2em", "--proofs", "--scale", "0.2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["matrices"] == 1 and payload["refuted"] == 0
        report = payload["reports"][0]
        assert report["matrix"] == "t2em"
        assert [
            o["obligation"] for o in report["obligations"]
        ] == ["index_width", "coverage", "shards", "image", "backend"]
        assert all(
            o["status"] == "proved" for o in report["obligations"]
        )

    def test_suite_mode_proves_every_workload(self, capsys):
        """Bare ``analyze`` sweeps the whole synth suite."""
        from repro.synth import workload_names

        assert main(["analyze", "--scale", "0.12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["matrices"] == len(workload_names())

    def test_self_lint_clean(self, capsys):
        assert main(["analyze", "--self"]) == 0
        out = capsys.readouterr().out
        assert "self-lint: 0 finding(s)" in out

    def test_self_lint_json(self, capsys):
        assert main(["analyze", "--self", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": True, "findings": []}

    def test_self_lint_any_finding_fails(self, capsys, monkeypatch):
        finding = LintFinding("det.bare-except", "repro/x.py", 3, "f",
                              "bare 'except:'")
        monkeypatch.setattr("repro.analyze.self_lint", lambda: [finding])
        assert main(["analyze", "--self", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": False, "findings": [finding.as_dict()]}


class TestRunReorder:
    def test_run_with_reorder_reports_gain(self, capsys):
        assert main([
            "run", "stormG2_1000", "--scale", "0.5", "--reorder",
            "--repeat", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "reorder:" in out and "bytes/nnz" in out
        assert "storage gain" in out
        assert "plan vs naive engines agree" in out

    def test_run_without_reorder_stays_quiet(self, capsys):
        assert main([
            "run", "stormG2_1000", "--scale", "0.5", "--repeat", "1",
        ]) == 0
        assert "reorder:" not in capsys.readouterr().out


class TestBackendsCommand:
    def test_table_lists_every_registered_backend(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "Registered kernel backends" in out
        for name in ("csr", "numba", "gather"):
            assert name in out
        assert "spmv, spmm, spmv_batch" in out

    def test_json_payload_in_negotiation_order(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [b["name"] for b in payload] == [
            "csr", "numba", "gather",
        ]
        gather = payload[-1]
        assert gather["available"] is True
        assert gather["requires"] is None
        assert gather["capabilities"]["ops"] == [
            "spmv", "spmm", "spmv_batch",
        ]
        for backend in payload:
            if not backend["available"]:
                assert backend["requires"]

    def test_run_with_explicit_backend(self, capsys):
        assert main([
            "run", "t2em", "--scale", "0.2", "--repeat", "1",
            "--backend", "gather",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=gather, explicit" in out
        assert "plan vs naive engines agree" in out

    def test_run_auto_reports_resolved_backend(self, capsys):
        assert main([
            "run", "t2em", "--scale", "0.2", "--repeat", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=" in out and "explicit" not in out

    def test_run_unknown_backend_exits_1(self, capsys):
        assert main([
            "run", "t2em", "--scale", "0.2", "--repeat", "1",
            "--backend", "nope",
        ]) == 1
        assert "unknown execution backend" in capsys.readouterr().err

    def test_run_naive_engine_rejects_backend(self, capsys):
        assert main([
            "run", "t2em", "--scale", "0.2", "--repeat", "1",
            "--engine", "naive", "--backend", "gather",
        ]) == 1
        err = capsys.readouterr().err
        assert "no kernel backend" in err

    def test_run_json_resolved_object(self, capsys):
        assert main(["run", "raefsky3", "--scale", "0.02",
                     "--repeat", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        resolved = payload["resolved"]
        assert resolved["engine"] == "plan"
        assert resolved["backend"]
        assert "/" in resolved["layout"]
        assert resolved["jobs"] >= 1
        assert resolved["portfolio"].startswith("portfolio")
        assert payload["check"]["agree"] is True


class TestEncodeSpmv:
    def test_encode_then_spmv(self, capsys, tmp_path):
        out = str(tmp_path / "m.npz")
        assert main([
            "encode", "t2em", "--scale", "0.2", "-o", out,
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["spmv", out]) == 0
        text = capsys.readouterr().out
        assert "exact" in text and "GFLOP/s" in text

    def test_spmv_hardware_choice(self, capsys, tmp_path):
        out = str(tmp_path / "m.npz")
        main(["encode", "raefsky3", "--scale", "0.2", "-o", out])
        capsys.readouterr()
        assert main(["spmv", out, "--hardware", "SPASM_3_2"]) == 0
        assert "SPASM_3_2" in capsys.readouterr().out

    def test_encode_with_cache_and_trace(self, capsys, tmp_path):
        out = str(tmp_path / "m.npz")
        trace_file = tmp_path / "trace.json"
        cache = str(tmp_path / "cache")
        assert main([
            "encode", "t2em", "--scale", "0.2", "-o", out,
            "--cache-dir", cache, "--trace", str(trace_file),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        trace = json.loads(trace_file.read_text())
        cached = {
            e["name"]: e["cache"]
            for e in trace["events"]
            if e["name"] in (
                "analysis", "selection", "decomposition", "schedule"
            )
        }
        assert set(cached.values()) == {"miss"}
        assert main(["spmv", out]) == 0
        assert "exact" in capsys.readouterr().out

    def test_spmv_missing_file(self, capsys):
        assert main(["spmv", "/no/such.npz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestReproduce:
    def test_writes_reports(self, capsys, tmp_path):
        out = tmp_path / "rep"
        assert main([
            "reproduce", "--out", str(out), "--scale", "0.2",
            "--matrices", "raefsky3,t2em",
        ]) == 0
        written = {p.name for p in out.iterdir()}
        assert written == {
            "storage.txt", "throughput.txt",
            "bandwidth_efficiency.txt", "energy.txt",
        }
        text = (out / "throughput.txt").read_text()
        assert "raefsky3" in text and "Serpens_a24" in text
        assert "wrote 4 reports" in capsys.readouterr().out


class TestErrors:
    def test_unknown_workload(self, capsys):
        assert main(["analyze", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_mtx(self, capsys):
        assert main(["analyze", "/does/not/exist.mtx"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_missing_mtx(self, capsys):
        assert main(["run", "/does/not/exist.mtx"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # exactly one line

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "no_such_workload"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_verify_missing_artifact(self, capsys):
        assert main(["verify", "/does/not/exist.npz"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_verify_truncated_npz(self, capsys, tmp_path):
        from repro.core import SpasmCompiler, save_spasm
        from repro.synth import load_workload

        spasm = SpasmCompiler().compile(
            load_workload("stormG2_1000", scale=0.5)
        ).spasm
        path = tmp_path / "t.npz"
        save_spasm(path, spasm)
        path.write_bytes(path.read_bytes()[:64])
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_verify_non_npz_garbage(self, capsys, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a zip archive")
        assert main(["verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--repeat", "0"], "--repeat"),
        (["run", "--repeat", "-1"], "--repeat"),
        (["run", "--batch", "-3"], "--batch"),
        (["run", "--jobs", "-1"], "--jobs"),
        (["compile", "--jobs", "-1"], "--jobs"),
    ])
    def test_numeric_flag_out_of_range_exits_2(self, capsys, argv,
                                               flag):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "raefsky3", "--scale", "0.02", *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


class TestFaults:
    TINY = {
        "name": "tiny",
        "target": "guard",
        "workload": "stormG2_1000",
        "scale": 0.5,
        "jobs": 2,
        "trials": {
            "stream": 1, "value": 1, "plan": 1,
            "worker": 1, "image": 1, "cache": 1,
        },
    }
    TINY_SERVER = {
        "name": "tiny-server",
        "target": "server",
        "matrices": [("tmt_sym", 0.3)],
        "tenants": [("t0", 0, 1.0, None, 2)],
        "workers": 1,
        "max_queue_per_plan": 16,
        "max_total": 32,
        "clean_requests": 8,
        "burst_requests": 4,
        "trials": {"value": 1, "cache": 1},
    }

    def test_faults_smoke_json_and_report_file(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.resilience import campaign

        monkeypatch.setitem(
            campaign.CAMPAIGN_PRESETS, "smoke", self.TINY
        )
        out_file = tmp_path / "faults.json"
        assert main([
            "faults", "--quiet", "--json", "--out", str(out_file),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["zero_escapes"] is True
        assert report["totals"]["injections"] == 6
        archived = json.loads(out_file.read_text())
        assert archived["totals"] == report["totals"]

    def test_faults_server_target(self, capsys, tmp_path, monkeypatch):
        from repro.resilience import campaign

        monkeypatch.setitem(
            campaign.CAMPAIGN_PRESETS, "chaos-smoke", self.TINY_SERVER
        )
        assert main([
            "faults", "--campaign", "chaos-smoke", "--quiet", "--json",
            "--cache-dir", str(tmp_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == "server"
        assert report["passed"] is True
        assert set(report["surfaces"]) == {"value", "cache"}
        assert report["clean"]["audit"]["escaped"] == 0

    def test_faults_escape_exits_nonzero(
        self, capsys, monkeypatch
    ):
        def rigged(preset="smoke", seed=0, cache_dir=None,
                   progress=None):
            return {
                "preset": "smoke", "target": "guard", "seed": seed,
                "workload": {"name": "x", "nnz": 1},
                "surfaces": {}, "escapes": [{"surface": "plan"}],
                "unfired": [], "zero_escapes": False, "passed": False,
                "totals": {"injections": 1, "unfired": 0,
                           "requests": 1, "detected": 0,
                           "contained": 0, "shed": 0, "escaped": 1},
            }

        import repro.resilience

        monkeypatch.setattr(
            repro.resilience, "run_campaign", rigged
        )
        assert main(["faults", "--quiet"]) == 1
        assert "escaped" in capsys.readouterr().err

    def test_faults_unfired_exits_nonzero_naming_surface(
        self, capsys, monkeypatch
    ):
        from repro.pipeline.cache import ArtifactCache
        from repro.resilience import campaign

        # Nothing persisted: the cache surface has nothing to corrupt.
        monkeypatch.setattr(ArtifactCache, "store",
                            lambda self, stage, key, arrays, meta: None)
        monkeypatch.setitem(
            campaign.CAMPAIGN_PRESETS, "smoke",
            dict(self.TINY, trials={"value": 1, "cache": 1}),
        )
        assert main(["faults", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "never fired on surface(s): cache" in captured.err
        assert "UNFIRED on cache" in captured.out

    def test_faults_text_render(self, capsys, monkeypatch):
        from repro.resilience import campaign

        monkeypatch.setitem(
            campaign.CAMPAIGN_PRESETS, "smoke", self.TINY
        )
        assert main(["faults", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "ZERO ESCAPES" in out
        assert "stream" in out and "cache" in out


class TestLoadMatrix:
    def test_workload_name(self):
        assert load_matrix("t2em", 0.3).nnz > 0

    def test_mtx_path(self, mtx_file):
        assert load_matrix(mtx_file, 1.0).nnz == 16
