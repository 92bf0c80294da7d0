"""Extension: per-matrix autotuning (``repro.tune``) vs the defaults.

For each workload class the tuner searches the knob space — candidate
portfolio, tile size, index/value layout, kernel backend, shard jobs,
batch block width — with the paper's step ④ analytic model as a
first-pass pruner and measured best-of-N timing on the survivors.
This bench quantifies what that buys over the static defaults and
gates the tuner's contracts:

* ``agree`` — the plan run with the record's knobs (its layout, and
  ``backend=``/``jobs=``/``block_size=`` as plain arguments) must
  reproduce the naive float64 reference **bitwise**, at every scale
  (tuning never changes the numbers);
* ``cache_hit`` — a second ``tune_matrix`` on the unchanged matrix
  must be served from the artifact cache without re-measuring;
* ``pruned_fraction`` — the analytic model must cut the measured
  candidate set by at least half versus the exhaustive grid;
* ``speedup`` — tuned spmv must never lose to the default dispatch
  (10% tolerance).  Both sides run the plan's one memoized dispatch
  path, so on a host where the tuner picks what auto negotiation
  resolves the honest geomean is about 1.0x; it is reported, not
  gated.

``REPRO_TUNE_MATRICES`` (comma-separated workload names) restricts
the suite for smoke runs; ``REPRO_BENCH_SCALE`` scales the synthetic
matrices as everywhere else.  Results land in ``BENCH_tune.json`` at
the repo root for CI to archive.
"""

import json
import math
import os
import pathlib
import tempfile
import time

import numpy as np

from benchmarks.bench_exec_plan import best_of_pair
from benchmarks.conftest import bench_scale, publish
from repro.analysis.report import format_table
from repro.core import SpasmCompiler
from repro.exec import ExecutionPlan
from repro.pipeline import ArtifactCache
from repro.synth import load_workload
from repro.tune import tune_matrix

#: (workload, base scale): the same three structure classes as the
#: exec bench plus three more Table II entries for geomean stability.
CLASSES = (
    ("tmt_sym", 2.0),
    ("raefsky3", 1.0),
    ("mycielskian14", 0.5),
    ("ex11", 1.0),
    ("Goodwin_054", 1.0),
    ("t2em", 1.0),
)
BATCH_QUERIES = 8
RESULT_JSON = pathlib.Path(__file__).parent.parent / "BENCH_tune.json"


def selected_classes():
    """The workload sweep, optionally narrowed by env for smoke runs."""
    only = os.environ.get("REPRO_TUNE_MATRICES")
    if not only:
        return CLASSES
    names = {n.strip() for n in only.split(",") if n.strip()}
    picked = [c for c in CLASSES if c[0] in names]
    if not picked:
        raise SystemExit(
            f"REPRO_TUNE_MATRICES={only!r} matches no bench workload "
            f"(choose from {', '.join(n for n, _ in CLASSES)})"
        )
    return picked


def measure(name, scale, cache):
    coo = load_workload(name, scale=scale)

    t0 = time.perf_counter()
    result = tune_matrix(coo, cache=cache, repeats=2,
                         batch_queries=BATCH_QUERIES)
    tune_wall_ms = (time.perf_counter() - t0) * 1e3
    again = tune_matrix(coo, cache=cache, repeats=2,
                        batch_queries=BATCH_QUERIES)
    cfg = result.config

    program = SpasmCompiler(build_plan=True).compile(coo)
    spasm, plan = program.spasm, program.plan
    tuned_plan = ExecutionPlan.build(spasm, index=cfg.index,
                                     precision=cfg.precision)
    knobs = dict(jobs=cfg.jobs, backend=cfg.pinned_backend())
    block = cfg.batch_block or None
    rng = np.random.default_rng(7)
    x = rng.random(spasm.shape[1])
    xs = np.ascontiguousarray(
        rng.random((BATCH_QUERIES, spasm.shape[1]))
    )
    reference = spasm.spmv_naive(x)
    agree = bool(
        np.array_equal(tuned_plan.spmv(x, **knobs), reference)
        and np.array_equal(
            tuned_plan.spmv_batch(xs, block_size=block, **knobs),
            plan.spmv_batch(xs))
    )
    # Independent re-measurement (interleaved, drift-immune) rather
    # than trusting the numbers the search itself recorded.
    tuned_s, default_s = best_of_pair(
        lambda: tuned_plan.spmv(x, **knobs),
        lambda: plan.spmv(x),
    )
    tuned_batch_s, default_batch_s = best_of_pair(
        lambda: tuned_plan.spmv_batch(xs, block_size=block, **knobs),
        lambda: plan.spmv_batch(xs),
    )

    pruned_fraction = (
        1.0 - cfg.candidates_measured / cfg.candidates_total
        if cfg.candidates_total else 0.0
    )
    return {
        "matrix": name,
        "scale": scale,
        "shape": list(coo.shape),
        "nnz": int(coo.nnz),
        "tune_wall_ms": tune_wall_ms,
        "cache_hit": bool(again.cache_hit),
        "config": cfg.as_dict(),
        "candidates_total": cfg.candidates_total,
        "candidates_measured": cfg.candidates_measured,
        "pruned_fraction": pruned_fraction,
        "tuned_spmv_ms": tuned_s * 1e3,
        "default_spmv_ms": default_s * 1e3,
        "speedup": default_s / tuned_s,
        "tuned_batch_qps": BATCH_QUERIES / tuned_batch_s,
        "default_batch_qps": BATCH_QUERIES / default_batch_s,
        "batch_speedup": default_batch_s / tuned_batch_s,
        "agree": agree,
    }


def test_tune_suite(benchmark):
    scale = bench_scale()
    classes = selected_classes()

    def sweep():
        with tempfile.TemporaryDirectory() as cache_dir:
            cache = ArtifactCache(cache_dir)
            return [
                measure(name, base * scale, cache)
                for name, base in classes
            ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in results) / len(results)
    )
    table = format_table(
        ["matrix", "nnz", "default ms", "tuned ms", "speedup",
         "batch x", "measured/total", "layout", "backend", "agree"],
        [
            [r["matrix"], r["nnz"], r["default_spmv_ms"],
             r["tuned_spmv_ms"], r["speedup"], r["batch_speedup"],
             f"{r['candidates_measured']}/{r['candidates_total']}",
             r["config"]["index"] + "/" + r["config"]["precision"],
             r["config"]["backend"],
             "yes" if r["agree"] else "NO"]
            for r in results
        ],
        title=f"Extension: per-matrix autotuning vs defaults "
              f"(geomean {geomean:.2f}x)",
        precision=2,
    )
    publish("tune", table)

    RESULT_JSON.write_text(
        json.dumps(
            {
                "bench": "tune",
                "scale": scale,
                "matrices": [r["matrix"] for r in results],
                "geomean_speedup": geomean,
                "pruned_fraction_min": min(
                    r["pruned_fraction"] for r in results
                ),
                "results": results,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    for r in results:
        # Tuning is a dispatch choice, never a numeric change.
        assert r["agree"], (
            f"{r['matrix']}: tuned knobs diverge bitwise from "
            "the naive reference"
        )
        # Persisted records short-circuit the search entirely.
        assert r["cache_hit"], (
            f"{r['matrix']}: second tune_matrix was not served from "
            "the artifact cache"
        )
        # The analytic model must do real pruning work.
        assert r["pruned_fraction"] >= 0.5, (
            f"{r['matrix']}: model pruned only "
            f"{r['pruned_fraction']:.0%} of the candidate grid"
        )
        # Tuned must never lose to the default dispatch.
        assert r["tuned_spmv_ms"] <= r["default_spmv_ms"] * 1.10, (
            f"{r['matrix']}: tuned spmv {r['tuned_spmv_ms']:.3f} ms "
            f"slower than default {r['default_spmv_ms']:.3f} ms"
        )
