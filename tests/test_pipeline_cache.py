"""Tests for content-addressed caching of pipeline artifacts."""

import os

import numpy as np
import pytest

from repro.core import SpasmCompiler
from repro.pipeline import ArtifactCache, fingerprint, matrix_digest
from repro.pipeline.cache import (
    chain_key,
    portfolio_from_state,
    portfolio_state,
)
from tests.conftest import random_structured_coo

TILE_SIZES = (16, 32, 64)
CACHEABLE = ("analysis", "selection", "decomposition", "schedule")


@pytest.fixture
def coo(rng):
    return random_structured_coo(rng, 96, "mixed")


def cache_states(program):
    return {
        e.name: e.cache for e in program.trace if e.name in CACHEABLE
    }


class TestColdWarm:
    def test_cold_then_warm(self, coo, tmp_path):
        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        cold = compiler.compile(coo)
        assert cache_states(cold) == {s: "miss" for s in CACHEABLE}
        warm = compiler.compile(coo)
        assert cache_states(warm) == {s: "hit" for s in CACHEABLE}
        assert warm.trace.cache_hits == len(CACHEABLE)

    def test_warm_program_byte_identical(self, coo, tmp_path):
        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        cold = compiler.compile(coo)
        warm = compiler.compile(coo)
        assert np.array_equal(cold.spasm.words, warm.spasm.words)
        assert np.array_equal(cold.spasm.values, warm.spasm.values)
        assert cold.tile_size == warm.tile_size
        assert cold.hw_config.name == warm.hw_config.name
        assert cold.portfolio.name == warm.portfolio.name
        assert warm.selection is not None
        assert cold.selection.paddings == warm.selection.paddings
        assert [
            (p.tile_size, p.hw_config.name, p.cycles)
            for p in cold.schedule.points
        ] == [
            (p.tile_size, p.hw_config.name, p.cycles)
            for p in warm.schedule.points
        ]

    def test_warm_across_compiler_instances(self, coo, tmp_path):
        a = SpasmCompiler(tile_sizes=TILE_SIZES, cache_dir=tmp_path)
        b = SpasmCompiler(tile_sizes=TILE_SIZES, cache_dir=tmp_path)
        cold = a.compile(coo)
        warm = b.compile(coo)
        assert cache_states(warm) == {s: "hit" for s in CACHEABLE}
        assert np.array_equal(cold.spasm.words, warm.spasm.words)

    def test_entries_on_disk(self, coo, tmp_path):
        SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        ).compile(coo)
        entries = ArtifactCache(tmp_path).entries()
        stages = {name.split("-")[0] for name in entries}
        assert stages == set(CACHEABLE)

    def test_no_cache_dir_means_off(self, coo):
        program = SpasmCompiler(tile_sizes=TILE_SIZES).compile(coo)
        assert cache_states(program) == {s: "off" for s in CACHEABLE}


class TestInvalidation:
    def test_different_matrix_misses(self, rng, tmp_path):
        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        compiler.compile(random_structured_coo(rng, 96, "mixed"))
        other = compiler.compile(random_structured_coo(rng, 96, "mixed"))
        assert cache_states(other) == {s: "miss" for s in CACHEABLE}

    def test_k_change_invalidates_everything(self, coo, tmp_path):
        SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        ).compile(coo)
        program = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path, k=2
        ).compile(coo)
        assert cache_states(program) == {s: "miss" for s in CACHEABLE}

    def test_strategy_change_keeps_analysis(self, coo, tmp_path):
        SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        ).compile(coo)
        program = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path,
            portfolio_strategy="greedy",
        ).compile(coo)
        assert cache_states(program) == {
            "analysis": "hit",
            "selection": "miss",
            "decomposition": "miss",
            "schedule": "miss",
        }

    def test_tile_sweep_change_invalidates_schedule_only(
        self, coo, tmp_path
    ):
        SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        ).compile(coo)
        program = SpasmCompiler(
            tile_sizes=(16, 32), cache_dir=tmp_path
        ).compile(coo)
        assert cache_states(program) == {
            "analysis": "hit",
            "selection": "hit",
            "decomposition": "hit",
            "schedule": "miss",
        }

    def test_fixed_portfolio_invalidates_downstream(
        self, coo, tmp_path
    ):
        """A non-cacheable upstream pass still re-keys its children."""
        from repro.core import candidate_portfolios

        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        compiler.compile(coo)
        program = compiler.compile(
            coo, fixed_portfolio=candidate_portfolios()[1]
        )
        states = cache_states(program)
        assert states["analysis"] == "hit"
        assert states["selection"] == "off"  # ablation: not cacheable
        assert states["decomposition"] == "miss"
        assert states["schedule"] == "miss"

    def test_jobs_share_cache_entries(self, coo, tmp_path):
        """The thread count must not change cache keys."""
        SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path, jobs=1
        ).compile(coo)
        program = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path, jobs=4
        ).compile(coo)
        assert cache_states(program) == {s: "hit" for s in CACHEABLE}


class TestCorruption:
    def test_corrupted_entry_recomputed(self, coo, tmp_path):
        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        cold = compiler.compile(coo)
        for path in tmp_path.glob("schedule-*.npz"):
            path.write_bytes(b"this is not an npz archive")
        program = compiler.compile(coo)
        states = cache_states(program)
        assert states["schedule"] == "miss"  # recomputed, re-stored
        assert states["analysis"] == "hit"
        assert np.array_equal(cold.spasm.words, program.spasm.words)
        again = compiler.compile(coo)
        assert cache_states(again)["schedule"] == "hit"

    def test_truncated_entry_recomputed(self, coo, tmp_path):
        compiler = SpasmCompiler(
            tile_sizes=TILE_SIZES, cache_dir=tmp_path
        )
        compiler.compile(coo)
        for path in tmp_path.glob("analysis-*.npz"):
            path.write_bytes(path.read_bytes()[:20])
        program = compiler.compile(coo)
        assert cache_states(program)["analysis"] == "miss"

    def test_load_missing_is_none(self, tmp_path):
        assert ArtifactCache(tmp_path).load("analysis", "0" * 40) is None

    def test_store_load_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        arrays = {"a": np.arange(4, dtype=np.int64)}
        cache.store("analysis", "f" * 40, arrays, {"note": "hello"})
        entry = cache.load("analysis", "f" * 40)
        assert entry is not None
        assert np.array_equal(entry.arrays["a"], arrays["a"])
        assert entry.meta["note"] == "hello"


class TestQuarantine:
    """Corrupt entries are quarantined, never served and never fatal."""

    def seed_entry(self, tmp_path, on_event=None):
        cache = ArtifactCache(tmp_path, on_event=on_event)
        cache.store("analysis", "a" * 40,
                    {"v": np.arange(64, dtype=np.int64)},
                    {"note": "seed"})
        return cache

    def test_truncated_entry_quarantined(self, tmp_path):
        events = []
        cache = self.seed_entry(
            tmp_path, on_event=lambda kind, d: events.append((kind, d))
        )
        path = cache.path("analysis", "a" * 40)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.load("analysis", "a" * 40) is None  # miss, no raise
        assert len(cache.quarantined()) == 1
        assert events and events[0][0] == "quarantine"
        # the sidecar records why
        name = cache.quarantined()[0]
        reason = open(
            cache.quarantine_dir + "/" + name + ".reason"
        ).read()
        assert reason.strip()
        # a rebuild stores a good entry; later loads hit again
        cache.store("analysis", "a" * 40,
                    {"v": np.arange(64, dtype=np.int64)}, {})
        assert cache.load("analysis", "a" * 40) is not None

    def test_checksum_mismatch_quarantined(self, tmp_path):
        import json as jsonlib

        cache = self.seed_entry(tmp_path)
        path = cache.path("analysis", "a" * 40)
        # Rewrite the payload array while keeping the recorded
        # checksum: a valid zip whose content silently changed.
        with np.load(path, allow_pickle=False) as data:
            meta = jsonlib.loads(str(data["__meta__"]))
        np.savez(
            path,
            __meta__=np.array(jsonlib.dumps(meta)),
            v=np.arange(64, dtype=np.int64) + 1,
        )
        assert cache.load("analysis", "a" * 40) is None
        assert len(cache.quarantined()) == 1
        reason_files = [
            n for n in os.listdir(cache.quarantine_dir)
            if n.endswith(".reason")
        ]
        assert reason_files
        text = open(
            cache.quarantine_dir + "/" + reason_files[0]
        ).read()
        assert "checksum" in text

    def test_wrong_magic_is_plain_miss(self, tmp_path):
        import json as jsonlib

        cache = self.seed_entry(tmp_path)
        path = cache.path("analysis", "a" * 40)
        np.savez(
            path,
            __meta__=np.array(jsonlib.dumps({"magic": "older-v0"})),
            v=np.arange(4, dtype=np.int64),
        )
        assert cache.load("analysis", "a" * 40) is None
        assert cache.quarantined() == ()  # foreign layout: not corrupt

    def test_quarantine_names_collide_safely(self, tmp_path):
        cache = self.seed_entry(tmp_path)
        path = cache.path("analysis", "a" * 40)
        for _ in range(3):
            with open(path, "wb") as fh:
                fh.write(b"junk")
            assert cache.load("analysis", "a" * 40) is None
        assert len(cache.quarantined()) == 3

    def test_quarantine_missing_entry_is_noop(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.quarantine("analysis", "b" * 40) is None

    def test_concurrent_writers_never_corrupt(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        cache = ArtifactCache(tmp_path)
        payloads = [
            np.full(256, fill, dtype=np.int64) for fill in range(8)
        ]

        def write(i):
            cache.store("analysis", "c" * 40,
                        {"v": payloads[i % 8]}, {"writer": i})

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(64)))
            for _ in range(32):
                entry = cache.load("analysis", "c" * 40)
                # Atomic replace: every observed state is one of the
                # complete payloads, never a torn mix.
                assert entry is not None
                assert any(
                    np.array_equal(entry.arrays["v"], p)
                    for p in payloads
                )
        assert cache.quarantined() == ()

    def test_corrupt_plan_payload_rejected_and_quarantined(
        self, tmp_path, coo
    ):
        """A persisted plan whose arrays break the dispatch invariants
        is quarantined on load and transparently rebuilt."""
        from repro.core import candidate_portfolios, encode_spasm
        from repro.exec import ExecutionPlan, PLAN_STAGE

        spasm = encode_spasm(coo, candidate_portfolios()[0], 32)
        cache = ArtifactCache(tmp_path)
        built = ExecutionPlan.build(spasm, cache=cache)
        key = built.digest[:40]
        entry = cache.load(PLAN_STAGE, key)
        arrays = dict(entry.arrays)
        arrays["seg_starts"] = arrays["seg_starts"][::-1].copy()
        cache.store(PLAN_STAGE, key, arrays, entry.meta)
        reloaded = ExecutionPlan.build(spasm, cache=cache)
        assert reloaded.validate() == []
        assert np.array_equal(reloaded.vals, built.vals)
        assert len(cache.quarantined()) == 1

    def test_plan_entry_without_checksum_is_malformed(
        self, tmp_path, coo
    ):
        """The payload checksum covers arrays, not meta: an entry whose
        meta lost ``plan_checksum`` is refused by both plan-cache
        loaders, and the plan cache quarantines it with a reason."""
        from repro.core import candidate_portfolios, encode_spasm
        from repro.exec import ExecutionPlan, PLAN_STAGE
        from repro.pipeline import ArtifactStore, PlanPass

        events = []
        spasm = encode_spasm(coo, candidate_portfolios()[0], 32)
        cache = ArtifactCache(
            tmp_path, on_event=lambda kind, info: events.append(info)
        )
        built = ExecutionPlan.build(spasm, cache=cache)
        key = built.digest[:40]
        entry = cache.load(PLAN_STAGE, key)
        meta = {k: v for k, v in entry.meta.items()
                if k != "plan_checksum"}
        cache.store(PLAN_STAGE, key, dict(entry.arrays), meta)

        stripped = cache.load(PLAN_STAGE, key)
        store = ArtifactStore()
        store.put("spasm", spasm)
        assert PlanPass().from_cache(store, stripped) is False
        assert not store.has("plan")

        reloaded = ExecutionPlan.build(spasm, cache=cache)
        assert reloaded.checksum == built.checksum
        assert len(cache.quarantined()) == 1
        assert "plan_checksum" in events[-1]["reason"]


class TestKeys:
    def test_matrix_digest_content_addressed(self, rng):
        coo = random_structured_coo(rng, 64, "mixed")
        clone = type(coo).from_dense(coo.to_dense())
        assert matrix_digest(coo) == matrix_digest(clone)
        other = random_structured_coo(rng, 64, "mixed")
        assert matrix_digest(coo) != matrix_digest(other)

    def test_fingerprint_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == \
            fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_chain_key_depends_on_parent(self):
        a = chain_key("m", "stage", "cfg", None)
        b = chain_key("m", "stage", "cfg", "parent")
        assert a != b
        assert len(a) == 40

    def test_portfolio_state_roundtrip(self):
        from repro.core import candidate_portfolios

        portfolio = candidate_portfolios()[2]
        rebuilt = portfolio_from_state(portfolio_state(portfolio))
        assert rebuilt.name == portfolio.name
        assert rebuilt.k == portfolio.k
        assert [t.mask for t in rebuilt.templates] == \
            [t.mask for t in portfolio.templates]


class TestEviction:
    """``max_bytes`` arms LRU eviction; recency follows hits."""

    def store_keyed(self, cache, key, fill, size=512):
        cache.store("analysis", key * 40,
                    {"v": np.full(size, fill, dtype=np.int64)}, {})
        return cache.path("analysis", key * 40)

    def entry_size(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = self.store_keyed(cache, "a", 0)
        return os.path.getsize(path)

    def test_budget_evicts_oldest(self, tmp_path):
        events = []
        size = self.entry_size(tmp_path / "probe")
        cache = ArtifactCache(
            tmp_path, max_bytes=int(3.5 * size),
            on_event=lambda kind, d: events.append((kind, d)),
        )
        # Pin mtimes as entries land so LRU order is unambiguous:
        # a oldest, c newest.
        for age, key in enumerate("abc"):
            path = self.store_keyed(cache, key, age)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        self.store_keyed(cache, "d", 3)
        assert cache.total_bytes() <= cache.max_bytes
        names = cache.entries()
        assert not any("a" * 40 in n for n in names)  # LRU victim
        assert any("d" * 40 in n for n in names)  # just written
        evicts = [d for kind, d in events if kind == "evict"]
        assert evicts and all(
            d["max_bytes"] == cache.max_bytes for d in evicts
        )

    def test_load_bumps_recency(self, tmp_path):
        size = self.entry_size(tmp_path / "probe")
        cache = ArtifactCache(tmp_path, max_bytes=int(2.5 * size))
        for age, key in enumerate("ab"):
            path = self.store_keyed(cache, key, age)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # A hit on the nominally-older entry rescues it from LRU.
        assert cache.load("analysis", "a" * 40) is not None
        self.store_keyed(cache, "c", 2)
        names = cache.entries()
        assert any("a" * 40 in n for n in names)
        assert not any("b" * 40 in n for n in names)

    def test_oversized_entry_never_evicts_itself(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=64)  # below any entry
        self.store_keyed(cache, "a", 0)
        assert cache.load("analysis", "a" * 40) is not None

    def test_no_budget_keeps_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i, key in enumerate("abcdef"):
            self.store_keyed(cache, key, i)
        assert len(cache.entries()) == 6

    def test_quarantine_retention_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path, quarantine_keep=2)
        for round_idx in range(5):
            self.store_keyed(cache, "a", round_idx)
            path = cache.path("analysis", "a" * 40)
            with open(path, "wb") as fh:
                fh.write(b"junk")
            assert cache.load("analysis", "a" * 40) is None
        # Reason sidecars ride along with their corpses.
        assert len(cache.quarantined()) <= 2
        reasons = [
            n for n in os.listdir(cache.quarantine_dir)
            if n.endswith(".reason")
        ]
        assert len(reasons) <= 2

    def test_concurrent_readers_writers_under_budget(self, tmp_path):
        """Readers racing writers racing the evictor: every load is a
        clean hit (a complete payload) or a clean miss, never a torn
        read or an exception."""
        from concurrent.futures import ThreadPoolExecutor

        size = self.entry_size(tmp_path / "probe")
        cache = ArtifactCache(tmp_path, max_bytes=int(3.5 * size))
        keys = [chr(ord("a") + i) * 40 for i in range(8)]

        def writer(i):
            cache.store("analysis", keys[i % 8],
                        {"v": np.full(512, i % 8, dtype=np.int64)},
                        {})

        def reader(i):
            entry = cache.load("analysis", keys[i % 8])
            if entry is not None:
                assert np.array_equal(
                    entry.arrays["v"],
                    np.full(512, i % 8, dtype=np.int64),
                )

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(writer, range(64)))
            list(pool.map(reader, range(64)))
        assert cache.quarantined() == ()
        assert cache.total_bytes() <= cache.max_bytes + size
