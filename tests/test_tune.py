"""Tests for the per-matrix autotuning subsystem (``repro.tune``)."""

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.exec.plan as plan_mod
from repro.cli import main
from repro.core import SpasmCompiler
from repro.exec import ExecutionPlan
from repro.pipeline import ArtifactCache, matrix_digest
from repro.resilience import ExecutionGuard
from repro.tune import (
    TUNED_STAGE,
    TUNER_VERSION,
    TunedConfig,
    load_tuned,
    store_tuned,
    tune_matrix,
    tuned_cache_key,
)
from tests.conftest import random_structured_coo

DIGEST_A = "a1" * 32
DIGEST_B = "b2" * 32


def make_config(digest=DIGEST_A, **overrides):
    base = dict(
        matrix_digest=digest, portfolio="portfolio-0", tile_size=256,
        index="int32", precision="float64", backend="csr", jobs=1,
        batch_block=0, structure_bitwise=False, spmv_ms=1.0,
        default_spmv_ms=2.0, batch_qps=10.0, default_batch_qps=5.0,
        model_cycles=100.0, candidates_total=10,
        candidates_measured=3,
    )
    base.update(overrides)
    return TunedConfig(**base)


@pytest.fixture
def coo(rng):
    return random_structured_coo(rng, 96, "mixed")


class TestTunedConfigCache:
    """ArtifactCache round-trip of tuning records (satellite 3)."""

    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        config = make_config()
        store_tuned(cache, config)
        loaded = load_tuned(cache, DIGEST_A)
        assert loaded == config
        assert loaded.speedup == pytest.approx(2.0)
        assert loaded.layout == "int32/float64"

    def test_digest_keying(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        store_tuned(cache, make_config(DIGEST_A))
        assert load_tuned(cache, DIGEST_B) is None
        assert load_tuned(cache, DIGEST_A) is not None

    def test_tuner_version_invalidates_without_quarantine(
        self, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        stale = make_config(tuner_version=TUNER_VERSION + 1)
        store_tuned(cache, stale)
        # A version bump is a deliberate schema change, not data
        # corruption: plain miss, nothing quarantined.
        assert load_tuned(cache, DIGEST_A) is None
        assert not cache.quarantined()

    def test_truncated_record_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        store_tuned(cache, make_config())
        path = cache.path(TUNED_STAGE, tuned_cache_key(DIGEST_A))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert load_tuned(cache, DIGEST_A) is None  # miss, no raise
        assert len(cache.quarantined()) == 1

    def test_malformed_meta_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = tuned_cache_key(DIGEST_A)
        cache.store(
            TUNED_STAGE, key,
            {"tuner_version": np.array([TUNER_VERSION],
                                       dtype=np.int64)},
            {"bogus": 1},
        )
        assert load_tuned(cache, DIGEST_A) is None
        assert len(cache.quarantined()) == 1
        reason_files = [
            n for n in os.listdir(cache.quarantine_dir)
            if n.endswith(".reason")
        ]
        assert reason_files

    def test_digest_mismatch_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        # A record whose meta names a different matrix than its key
        # claims: corrupt, not just stale.
        cache.store(
            TUNED_STAGE, tuned_cache_key(DIGEST_A),
            {"tuner_version": np.array([TUNER_VERSION],
                                       dtype=np.int64)},
            make_config(DIGEST_B).as_dict(),
        )
        assert load_tuned(cache, DIGEST_A) is None
        assert len(cache.quarantined()) == 1

    def test_from_meta_rejects_unknown_and_mistyped(self):
        meta = make_config().as_dict()
        with pytest.raises(ValueError):
            TunedConfig.from_meta({**meta, "surprise": 1})
        with pytest.raises(ValueError):
            TunedConfig.from_meta({**meta, "jobs": "many"})
        missing = dict(meta)
        del missing["portfolio"]
        with pytest.raises(ValueError):
            TunedConfig.from_meta(missing)


class TestTuneMatrix:
    def test_search_and_cache_hit(self, coo, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = tune_matrix(coo, cache=cache, repeats=1)
        assert not first.cache_hit
        assert first.trials  # a real search timed candidates
        assert first.config.matrix_digest == matrix_digest(coo)
        # Second invocation on the same matrix is a pure cache hit:
        # no candidates are re-measured.
        second = tune_matrix(coo, cache=cache, repeats=1)
        assert second.cache_hit
        assert second.trials == ()
        assert second.config == first.config
        forced = tune_matrix(coo, cache=cache, repeats=1, force=True)
        assert not forced.cache_hit

    def test_model_prunes_most_candidates(self, coo):
        result = tune_matrix(coo, repeats=1)
        cfg = result.config
        assert cfg.candidates_total > 0
        # Acceptance bar: the analytic pruner cuts the measured set
        # by at least half versus the exhaustive grid.
        assert cfg.candidates_measured <= cfg.candidates_total // 2

    def test_tuned_result_bitwise_equal_to_default(self, coo, rng):
        result = tune_matrix(coo, repeats=1)
        cfg = result.config
        default = SpasmCompiler(build_plan=True).compile(coo)
        spasm = default.spasm
        plan = ExecutionPlan.build(spasm, index=cfg.index,
                                   precision=cfg.precision)
        x = rng.random(spasm.shape[1])
        got = plan.spmv(x, jobs=cfg.jobs, backend=cfg.pinned_backend())
        assert np.array_equal(got, default.plan.spmv(x))

    def test_no_lingering_jobs_pin(self, coo):
        # Tuning must leave no shard-count pin on plans the caller
        # keeps using.
        tune_matrix(coo, repeats=1)
        plan = SpasmCompiler(build_plan=True).compile(coo).plan
        assert "tuned_jobs" not in plan._scratch


class TestTunedExecutor:
    """A record's knobs applied as the plan's plain arguments."""

    @pytest.fixture
    def program(self, coo):
        return SpasmCompiler(build_plan=True).compile(coo)

    def test_batch_and_spmm_routing(self, program, rng):
        spasm, plan = program.spasm, program.plan
        cfg = make_config(batch_block=8)
        xs = np.ascontiguousarray(rng.random((5, spasm.shape[1])))
        assert np.array_equal(
            plan.spmv_batch(xs, jobs=cfg.jobs,
                            block_size=cfg.batch_block,
                            backend=cfg.pinned_backend()),
            spasm.spmv_batch(xs))
        dense = np.ascontiguousarray(rng.random((spasm.shape[1], 3)))
        assert np.array_equal(
            plan.spmm(dense, jobs=cfg.jobs, block_size=cfg.batch_block,
                      backend=cfg.pinned_backend()),
            spasm.spmm(dense))

    def test_unknown_backend_falls_back_to_auto(self, program, rng,
                                                 unavailable_backend):
        assert make_config(backend="gather").pinned_backend() == "gather"
        for name in ("no-such-backend", unavailable_backend.name):
            cfg = make_config(backend=name)
            assert cfg.pinned_backend() is None
            x = rng.random(program.spasm.shape[1])
            assert np.array_equal(
                program.plan.spmv(x, backend=cfg.pinned_backend()),
                program.spasm.spmv_naive(x))

    def test_y_accumulation(self, program, rng):
        plan = program.plan
        cfg = make_config()
        x = rng.random(plan.shape[1])
        y = rng.random(plan.shape[0])
        got = plan.spmv(x, y=y.copy(), jobs=cfg.jobs,
                        backend=cfg.pinned_backend())
        assert np.array_equal(got, plan.spmv(x) + y)


class TestCompilerTunedReuse:
    def test_tuned_true_requires_cache_dir(self):
        with pytest.raises(ValueError):
            SpasmCompiler(tuned=True)

    def test_compile_with_record(self, coo, tmp_path):
        cache = ArtifactCache(tmp_path)
        result = tune_matrix(coo, cache=cache, repeats=1)
        default = SpasmCompiler(build_plan=True).compile(coo)
        for tuned in (result.config, True):
            prog = SpasmCompiler(
                build_plan=True, cache_dir=tmp_path, tuned=tuned
            ).compile(coo)
            assert np.array_equal(prog.spasm.words,
                                  default.spasm.words)
            assert np.array_equal(prog.spasm.values,
                                  default.spasm.values)
            if result.config.structure_bitwise:
                # The record pins the structural knobs, so the
                # portfolio-selection pass is skipped entirely.
                assert prog.selection is None

    def test_missing_record_is_untuned_compile(self, coo, tmp_path):
        default = SpasmCompiler(build_plan=True).compile(coo)
        prog = SpasmCompiler(
            build_plan=True, cache_dir=tmp_path, tuned=True
        ).compile(coo)
        assert np.array_equal(prog.spasm.words, default.spasm.words)
        assert prog.portfolio.name == default.portfolio.name

    def test_guard_accepts_tuned_plan(self, coo, tmp_path, rng):
        cache = ArtifactCache(tmp_path)
        result = tune_matrix(coo, cache=cache, repeats=1)
        prog = SpasmCompiler(
            build_plan=True, cache_dir=tmp_path,
            tuned=result.config,
        ).compile(coo)
        guard = ExecutionGuard(prog.spasm, seed=0)
        x = rng.random(prog.spasm.shape[1])
        got = guard.spmv(x)
        assert np.array_equal(got, prog.spasm.spmv_naive(x))
        assert len(guard.log) == 0  # no fallback, no incidents


class TestAutoJobsClamp:
    """The dispatch-overhead clamp on auto-sharding (satellite 1)."""

    @pytest.fixture
    def plan(self, coo):
        return SpasmCompiler(build_plan=True).compile(coo).plan

    def test_override_pins_and_clears(self, plan):
        plan.override_auto_jobs(3)
        assert plan._auto_jobs() == max(
            1, min(3, os.cpu_count() or 1)
        )
        plan.override_auto_jobs(None)
        assert "tuned_jobs" not in plan._scratch
        with pytest.raises(ValueError):
            plan.override_auto_jobs(0)

    def test_overhead_clamps_shard_count(self, plan, monkeypatch):
        monkeypatch.setattr(plan_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(plan_mod, "AUTO_SHARD_SLOTS",
                            max(1, plan.n_slots // 16))
        # Negligible dispatch overhead: the nnz heuristic stands.
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1e-12)
        assert plan._auto_jobs() > 1
        # Pathological dispatch overhead: sharding can never pay for
        # itself, so the clamp walks the count back to serial.
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", 1.0)
        assert plan._auto_jobs() == 1

    def test_dispatch_overhead_measured_and_cached(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "_DISPATCH_OVERHEAD", None)
        first = plan_mod.dispatch_overhead_s()
        assert first > 0.0
        assert plan_mod.dispatch_overhead_s() == first  # cached
        assert plan_mod.dispatch_overhead_s(refresh=True) > 0.0


class TestCLI:
    def test_tune_then_run_tuned(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["tune", "raefsky3", "--scale", "0.02",
                     "--repeat", "1",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "stored in" in out
        assert "bitwise-safe" in out
        rc = main(["run", "raefsky3", "--scale", "0.02", "--tuned",
                   "--cache-dir", cache_dir, "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned:" in out
        assert "(cache, recorded" in out
        assert "engines agree (bitwise equal to naive)" in out

    def test_tune_json(self, capsys):
        assert main(["tune", "raefsky3", "--scale", "0.02",
                     "--repeat", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["persisted"] is False
        assert payload["cache_hit"] is False
        cfg = payload["config"]
        assert cfg["tuner_version"] == TUNER_VERSION
        assert cfg["candidates_measured"] <= cfg["candidates_total"]
        assert payload["trials"]

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
        assert resolved["tuned"] is False
        assert payload["check"]["agree"] is True

    def test_run_tuned_rejects_conflicts(self, capsys):
        assert main(["run", "raefsky3", "--scale", "0.02",
                     "--tuned", "--engine", "naive"]) == 1
        assert "--tuned requires" in capsys.readouterr().err
        assert main(["run", "raefsky3", "--scale", "0.02",
                     "--tuned", "--backend", "csr"]) == 1
        assert "--tuned conflicts" in capsys.readouterr().err
