"""The per-matrix autotuning search driver.

One :func:`tune_matrix` call explores the full knob space — template
portfolio (the ten Table V candidates), tile size, index/value dtype
layout, kernel backend, shard jobs and batch block width — in two
passes mirroring the paper's own flow:

1. **Analytic pruning** (the paper's step ④ model used as a cheap
   first pass): every candidate portfolio is compiled once with the
   selection stage pinned, letting the schedule sweep score every
   ``(portfolio, tile)`` point through
   :func:`repro.hw.perf_model.perf_model`; only the best-scoring
   structures survive to measurement.  This is where the ≥50% cut of
   the exhaustive candidate grid comes from.
2. **Measured best-of-N** on the survivors: structural survivors are
   re-encoded and timed (and checked *bitwise* against the default
   encoding — a structure that legally reorders float accumulation is
   recorded for the hardware side but never steers the numeric path),
   then the execution grid (layout x backend x jobs) and the batch
   block widths are timed on interleaved best-of-N runs against the
   default engine.

The winner is frozen into a :class:`~repro.tune.config.TunedConfig`
and, when an :class:`~repro.pipeline.cache.ArtifactCache` is passed,
persisted keyed on the matrix digest — a second tune of the same
matrix is a cache hit, not a re-search.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.framework import SpasmCompiler
from repro.core.templates import candidate_portfolios
from repro.exec.backends.registry import available_backends
from repro.exec.plan import ExecutionPlan
from repro.exec.policy import index_dtype_for
from repro.matrix import COOMatrix
from repro.pipeline.cache import ArtifactCache, matrix_digest
from repro.tune.config import (
    TUNER_VERSION,
    TunedConfig,
    load_tuned,
    store_tuned,
)

#: Structural survivors the model pass hands to measurement (the
#: default structure is always measured on top of these).
STRUCTURAL_SURVIVORS = 2

#: Batch block widths tried on the winning execution config (0 = the
#: engine's own scratch-bounded auto block).
BATCH_BLOCKS = (0, 8, 32)

#: float32 tolerance when ``allow_float32`` opts the value layout in.
_F32_RTOL, _F32_ATOL = 1e-5, 1e-8


@dataclasses.dataclass(frozen=True)
class Trial:
    """One timed candidate (for reports and the tuning bench)."""

    kind: str  # "structure" | "exec" | "batch"
    label: str
    ms: float
    bitwise: bool


@dataclasses.dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune_matrix` call."""

    config: TunedConfig
    cache_hit: bool
    wall_ms: float
    trials: Tuple[Trial, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.as_dict(),
            "cache_hit": self.cache_hit,
            "wall_ms": self.wall_ms,
            "trials": [dataclasses.asdict(t) for t in self.trials],
        }


def _best_of(fn: Callable[[], Any], repeats: int,
             inner: int = 1) -> float:
    """Best wall time of ``repeats`` runs of ``inner`` calls, in ms."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best * 1e3


def _best_of_pair(fn_a: Callable[[], Any], fn_b: Callable[[], Any],
                  repeats: int, inner: int = 1) -> Tuple[float, float]:
    """Interleaved best-of timing of two callables (fair comparison)."""
    best_a = best_b = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - t0) / inner)
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - t0) / inner)
    return best_a * 1e3, best_b * 1e3


def _calibrated_inner(fn: Callable[[], Any]) -> int:
    """Inner-loop count keeping one timing sample above ~0.3 ms."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    if once <= 0.0:
        return 32
    return int(max(1, min(32, 3e-4 / once)))


def _layout_variants(shape: Tuple[int, int], n_slots: int,
                     allow_float32: bool) -> List[Tuple[str, str]]:
    """The (index, precision) layouts worth timing for this plan."""
    auto_index = index_dtype_for(shape, n_slots).name
    layouts = [(auto_index, "float64")]
    if auto_index == "int32":
        layouts.append(("int64", "float64"))
    if allow_float32:
        layouts.append((auto_index, "float32"))
    return layouts


def _jobs_variants(n_slots: int) -> List[int]:
    """Shard counts worth timing (serial always; threads when sane)."""
    cpus = os.cpu_count() or 1
    variants = [1]
    if cpus > 1 and n_slots >= 2 * 16384:
        variants.append(min(2, cpus))
        if cpus > 2:
            variants.append(cpus)
    return variants


def tune_matrix(coo: COOMatrix, *,
                cache: Optional[ArtifactCache] = None,
                budget: int = 12,
                force: bool = False,
                repeats: int = 3,
                batch_queries: int = 8,
                seed: int = 0,
                allow_float32: bool = False,
                log: Optional[Callable[[str], None]] = None,
                ) -> TuneResult:
    """Search the knob space for one matrix; persist and return the win.

    ``budget`` caps how many candidates are *measured* (the analytic
    model prunes the rest); ``force`` re-searches even when a current
    record exists; ``allow_float32`` opts the compact value layout
    into the search (tolerance-checked, never silent).  The returned
    config's execution knobs are bitwise-safe by construction and its
    structural knobs carry an explicit ``structure_bitwise`` verdict.
    """
    t_start = time.perf_counter()
    emit = log if log is not None else (lambda message: None)
    digest = matrix_digest(coo)
    if cache is not None and not force:
        cached = load_tuned(cache, digest)
        if cached is not None:
            emit(f"tune: cache hit for {digest[:12]} "
                 f"(tuner v{cached.tuner_version})")
            wall_ms = (time.perf_counter() - t_start) * 1e3
            return TuneResult(config=cached, cache_hit=True,
                              wall_ms=wall_ms, trials=())

    rng = np.random.default_rng(seed)
    x = rng.random(coo.shape[1])
    xs = np.ascontiguousarray(
        rng.random((max(1, batch_queries), coo.shape[1]))
    )
    trials: List[Trial] = []
    budget = max(1, int(budget))

    # -- default configuration: the baseline every candidate must beat
    default_prog = SpasmCompiler(build_plan=True).compile(coo)
    default_plan = default_prog.plan
    assert default_plan is not None
    reference = default_plan.spmv(x)
    inner = _calibrated_inner(lambda: default_plan.spmv(x))

    # -- pass 1: analytic model over the full structural grid ---------
    candidates = candidate_portfolios()
    tile_count = len(SpasmCompiler().tile_sizes)
    structural: List[Dict[str, Any]] = []
    for portfolio in candidates:
        prog = SpasmCompiler().compile(coo, fixed_portfolio=portfolio)
        structural.append({
            "portfolio": portfolio.name,
            "tile": prog.tile_size,
            "cycles": float(prog.estimate().total_cycles),
            "spasm": prog.spasm,
        })
    structural.sort(key=lambda s: s["cycles"])
    survivors = structural[:STRUCTURAL_SURVIVORS]
    emit("tune: model pass scored "
         f"{len(candidates) * tile_count} structural points, kept "
         f"{len(survivors)}")

    # -- pass 2a: measure structural survivors (bitwise-gated) --------
    default_portfolio = default_prog.portfolio.name
    default_tile = default_prog.tile_size
    default_cycles = float(default_prog.estimate().total_cycles)
    best_structure = {
        "portfolio": default_portfolio, "tile": default_tile,
        "cycles": default_cycles, "bitwise": True,
    }
    measured = 0
    for entry in survivors:
        if measured >= budget:
            break
        if (entry["portfolio"] == default_portfolio
                and entry["tile"] == default_tile):
            continue
        plan = entry["spasm"].plan()
        got = plan.spmv(x)
        bitwise = bool(np.array_equal(got, reference))
        ms = _best_of(lambda p=plan: p.spmv(x), repeats, inner)
        measured += 1
        trials.append(Trial(
            kind="structure",
            label=f"{entry['portfolio']}/t{entry['tile']}",
            ms=ms, bitwise=bitwise,
        ))
        # A structure may only steer the numeric path when it is
        # bitwise-exact AND models at least as fast as the default;
        # the contract is "never worse", not "modeled better".
        if bitwise and entry["cycles"] <= best_structure["cycles"]:
            best_structure = {
                "portfolio": entry["portfolio"],
                "tile": entry["tile"],
                "cycles": entry["cycles"], "bitwise": True,
            }

    # -- pass 2b: execution grid on the default-structure plan --------
    spasm = default_prog.spasm
    layouts = _layout_variants(default_plan.shape, default_plan.n_slots,
                               allow_float32)
    jobs_grid = _jobs_variants(default_plan.n_slots)
    backends = available_backends()
    exec_grid: List[Tuple[str, str, str, int]] = []
    for index, precision in layouts:
        for backend in backends:
            if not backend.capabilities().supports_layout(
                    np.dtype(index), np.dtype(precision)):
                continue
            for jobs in jobs_grid:
                exec_grid.append((index, precision, backend.name, jobs))
    exhaustive = (len(candidates) * tile_count * len(exec_grid)
                  + len(BATCH_BLOCKS))

    best_exec: Optional[Dict[str, Any]] = None
    plans: Dict[Tuple[str, str], ExecutionPlan] = {
        (default_plan.cols.dtype.name,
         default_plan.vals.dtype.name): default_plan,
    }
    for index, precision, backend_name, jobs in exec_grid:
        if measured >= budget:
            emit(f"tune: measurement budget ({budget}) exhausted; "
                 "remaining exec candidates pruned unmeasured")
            break
        plan = plans.get((index, precision))
        if plan is None:
            plan = ExecutionPlan.build(spasm, index=index,
                                       precision=precision)
            plans[(index, precision)] = plan
        got = plan.spmv(x, jobs=jobs, backend=backend_name)
        if precision == "float64":
            ok = bool(np.array_equal(got, reference))
        else:
            ok = bool(np.allclose(got, reference, rtol=_F32_RTOL,
                                  atol=_F32_ATOL))
        label = f"{index}/{precision}/{backend_name}/j{jobs}"
        if not ok:
            trials.append(Trial(kind="exec", label=label,
                                ms=float("inf"), bitwise=False))
            continue
        ms, default_ms = _best_of_pair(
            lambda p=plan, j=jobs, b=backend_name: p.spmv(x, jobs=j,
                                                          backend=b),
            lambda: default_plan.spmv(x),
            repeats, inner,
        )
        measured += 1
        trials.append(Trial(kind="exec", label=label, ms=ms,
                            bitwise=(precision == "float64")))
        if best_exec is None or ms < best_exec["ms"]:
            best_exec = {
                "index": index, "precision": precision,
                "backend": backend_name, "jobs": jobs, "ms": ms,
                "plan": plan,
            }
    if best_exec is None:
        # Budget exhausted before any exec measurement: fall back to
        # the default engine's own resolution, timed once for the
        # record.
        from repro.exec.backends.registry import resolve_backend

        auto = resolve_backend(None, plan=default_plan, op="spmv")
        best_exec = {
            "index": default_plan.cols.dtype.name,
            "precision": default_plan.vals.dtype.name,
            "backend": auto.name, "jobs": 1,
            "ms": _best_of(lambda: default_plan.spmv(x), repeats,
                           inner),
            "plan": default_plan,
        }

    # -- pass 2c: batch block width on the winning exec config --------
    plan = best_exec["plan"]
    backend_name = best_exec["backend"]
    jobs = best_exec["jobs"]
    n_queries = xs.shape[0]
    best_block, best_batch_ms = 0, float("inf")
    for block in BATCH_BLOCKS:
        block_size = None if block == 0 else block
        ms = _best_of(
            lambda b=block_size: plan.spmv_batch(
                xs, jobs=jobs, block_size=b, backend=backend_name),
            repeats,
        )
        trials.append(Trial(kind="batch", label=f"block{block}",
                            ms=ms, bitwise=True))
        if ms < best_batch_ms:
            best_block, best_batch_ms = block, ms
    default_batch_ms = _best_of(lambda: default_plan.spmv_batch(xs),
                                repeats)

    # -- assemble, calibrate the headline pair, persist ---------------
    config = TunedConfig(
        matrix_digest=digest,
        portfolio=str(best_structure["portfolio"]),
        tile_size=int(best_structure["tile"]),
        index=str(best_exec["index"]),
        precision=str(best_exec["precision"]),
        backend=str(best_exec["backend"]),
        jobs=int(best_exec["jobs"]),
        batch_block=int(best_block),
        structure_bitwise=bool(best_structure["bitwise"]),
        spmv_ms=float(best_exec["ms"]),
        default_spmv_ms=float(best_exec["ms"]),  # refined below
        batch_qps=(n_queries / (best_batch_ms / 1e3)
                   if best_batch_ms > 0 else 0.0),
        default_batch_qps=(n_queries / (default_batch_ms / 1e3)
                           if default_batch_ms > 0 else 0.0),
        model_cycles=float(best_structure["cycles"]),
        candidates_total=int(exhaustive),
        candidates_measured=int(measured + len(BATCH_BLOCKS) + 1),
        tuner_version=TUNER_VERSION,
    )
    # The headline numbers time what a caller actually gets: the
    # record's knobs as plain arguments against the default dispatch,
    # interleaved.
    tuned_backend = config.pinned_backend()
    tuned_ms, default_ms = _best_of_pair(
        lambda: plan.spmv(x, jobs=config.jobs, backend=tuned_backend),
        lambda: default_plan.spmv(x),
        max(repeats, 3), inner,
    )
    config = dataclasses.replace(config, spmv_ms=tuned_ms,
                                 default_spmv_ms=default_ms)
    if cache is not None:
        store_tuned(cache, config)
    wall_ms = (time.perf_counter() - t_start) * 1e3
    emit(f"tune: {digest[:12]} -> {config.layout} {config.backend} "
         f"jobs={config.jobs} {config.speedup:.2f}x "
         f"({config.candidates_measured}/{exhaustive} candidates "
         "measured)")
    return TuneResult(config=config, cache_hit=False, wall_ms=wall_ms,
                      trials=tuple(trials))
