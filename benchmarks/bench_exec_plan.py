"""Extension: compiled execution plans vs the naive format execution.

The reference ``SpasmMatrix.spmv_naive`` re-expands every stored slot
to coordinates and accumulates with ``np.add.at`` on every call.  A
v2 :class:`~repro.exec.plan.ExecutionPlan` does that work once — with
padding dropped before any coordinate is decoded, the stream sorted by
output row and indices stored at the narrowest dtype the shape admits —
so each call is one sequential segmented accumulation.

This bench measures, per workload class (diagonal stripes, dense
blocks, scale-free graph):

* ``build_ms`` — ``ExecutionPlan.build``: the plan's own ``build_ms``
  stamp (slot decode and finalize) and the full wall time (plus the
  stream snapshot and hash), and the time-to-first-SpMV the stamp
  implies;
* ``spmv_ms`` — per-index-dtype single-thread latency (int64, compact
  int32) against the naive reference;
* ``sharded_ms`` — the nnz auto-heuristic (``jobs=None``) and a forced
  shard grid;
* ``batch`` — queries/s of the blocked SpMM batch engine.

Every engine must agree with the naive reference **bitwise**
(``agree``); any divergence fails the build outright.  The timing
gates (≥5x over naive, ≥1.3x int32 over int64,
time-to-first-SpMV ≤ half the recorded PR4 baseline, auto-sharding
never losing to single-thread) apply to matrices at or above one
million non-zeros, so the tiny CI smoke run (driven through a small
``REPRO_BENCH_SCALE``) checks agreement without timing noise flaking
the build.  Results land in ``BENCH_exec.json`` at the repo root for
CI to archive.
"""

import json
import pathlib
import time

import numpy as np

from benchmarks.conftest import bench_scale, publish
from repro.analysis.report import format_table
from repro.core import candidate_portfolios, encode_spasm
from repro.exec import ExecutionPlan
from repro.resilience import ExecutionGuard
from repro.synth import load_workload

#: (workload, base scale): tmt_sym crosses 1e6 nnz — the acceptance
#: headline; the other two cover dense-block and scale-free structure.
CLASSES = (
    ("tmt_sym", 25.0),
    ("raefsky3", 4.0),
    ("mycielskian14", 1.0),
)
SHARD_JOBS = 4
BATCH_QUERIES = 16
RESULT_JSON = pathlib.Path(__file__).parent.parent / "BENCH_exec.json"

#: Time-to-first-SpMV recorded by the PR4 bench (plan_build_ms +
#: plan_ms on the full-scale run); the plan build must at least halve
#: it.
PR4_TTF_MS = {"tmt_sym": 175.9}


def best_of(fn, repeats=3):
    """Best wall time of ``repeats`` calls, in seconds."""
    times = []
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def best_of_pair(fn_a, fn_b, repeats=5):
    """Best wall times of two functions, sampled interleaved.

    Timing the two back-to-back in alternating order makes a drifting
    host (CPU throttling mid-measurement) hit both equally — the
    comparison gates care about the *ratio*, which sequential blocks
    would skew.
    """
    best_a = best_b = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def measure(name, scale):
    coo = load_workload(name, scale=scale)
    portfolio = candidate_portfolios()[0]

    # Build times are best-of-3 like every other timing here — the
    # first build in a process pays one-off allocator/page-fault costs
    # that are not the build's.  ``plan.build_ms`` leaves out the
    # stream snapshot and hash; the wall time includes them.
    spasm = encode_spasm(coo, portfolio, 32)
    build_ms = build_wall_s = float("inf")
    for __ in range(3):
        t0 = time.perf_counter()
        plan = ExecutionPlan.build(spasm)
        build_wall_s = min(build_wall_s, time.perf_counter() - t0)
        build_ms = min(build_ms, plan.build_ms)

    plan_i64 = ExecutionPlan.build(spasm, index="int64")

    rng = np.random.default_rng(7)
    x = rng.random(spasm.shape[1])
    xs = np.ascontiguousarray(
        rng.random((BATCH_QUERIES, spasm.shape[1]))
    )

    reference = spasm.spmv_naive(x)
    guard = ExecutionGuard(spasm)
    batch_out = plan.spmv_batch(xs)
    batch_ref = np.stack([spasm.spmv_naive(q) for q in xs])
    agree = bool(
        np.array_equal(plan.spmv(x, jobs=1), reference)
        and np.array_equal(plan_i64.spmv(x, jobs=1), reference)
        and np.array_equal(plan.spmv(x), reference)
        and np.array_equal(plan.spmv(x, jobs=SHARD_JOBS), reference)
        and np.array_equal(guard.spmv(x), reference)
        and np.array_equal(batch_out, batch_ref)
    )

    naive_s = best_of(lambda: spasm.spmv_naive(x))
    # The ratio gates (int32 vs int64, auto vs single-thread) compare
    # interleaved samples so host-speed drift cannot skew them.
    i32_s, i64_s = best_of_pair(
        lambda: plan.spmv(x, jobs=1),
        lambda: plan_i64.spmv(x, jobs=1),
    )
    auto_s, i32_auto_s = best_of_pair(
        lambda: plan.spmv(x),
        lambda: plan.spmv(x, jobs=1),
    )
    i32_s = min(i32_s, i32_auto_s)
    forced_s = best_of(lambda: plan.spmv(x, jobs=SHARD_JOBS))
    batch_s = best_of(lambda: plan.spmv_batch(xs))

    return {
        "matrix": name,
        "scale": scale,
        "shape": list(coo.shape),
        "nnz": int(coo.nnz),
        "plan_slots": plan.n_slots,
        "layout": f"{plan.cols.dtype.name}/{plan.vals.dtype.name}",
        "build_ms": {
            "plan": build_ms,
            "wall": build_wall_s * 1e3,
        },
        "ttf_ms": build_ms + i32_s * 1e3,
        "ttf_pr4_ms": PR4_TTF_MS.get(name),
        "naive_ms": naive_s * 1e3,
        "plan_ms": i32_s * 1e3,
        "spmv_ms": {
            "naive": naive_s * 1e3,
            "int64": i64_s * 1e3,
            "int32": i32_s * 1e3,
        },
        "sharded_ms": {
            "auto": auto_s * 1e3,
            "auto_jobs": plan._auto_jobs(),
            "forced": forced_s * 1e3,
            "forced_jobs": SHARD_JOBS,
        },
        "batch": {
            "queries": BATCH_QUERIES,
            "ms": batch_s * 1e3,
            "per_query_ms": batch_s / BATCH_QUERIES * 1e3,
            "qps": BATCH_QUERIES / batch_s,
        },
        "batch_qps": BATCH_QUERIES / batch_s,
        "speedup": naive_s / i32_s,
        "int32_vs_int64": i64_s / i32_s,
        "agree": agree,
    }


def test_exec_plan_speedup(benchmark):
    scale = bench_scale()

    def sweep():
        return [
            measure(name, base * scale) for name, base in CLASSES
        ]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_table(
        ["matrix", "nnz", "naive ms", "i64 ms", "i32 ms",
         "plan build ms", "auto ms", "batch q/s", "agree"],
        [
            [r["matrix"], r["nnz"], r["spmv_ms"]["naive"],
             r["spmv_ms"]["int64"], r["spmv_ms"]["int32"],
             r["build_ms"]["plan"], r["sharded_ms"]["auto"],
             r["batch_qps"], "yes" if r["agree"] else "NO"]
            for r in results
        ],
        title="Extension: compiled plan v2 vs naive SpMV execution",
        precision=2,
    )
    publish("exec_plan", table)

    RESULT_JSON.write_text(
        json.dumps(
            {
                "bench": "exec_plan",
                "scale": scale,
                "shard_jobs": SHARD_JOBS,
                "batch_queries": BATCH_QUERIES,
                "results": results,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Numeric divergence from the naive engine fails the build
    # outright.
    for r in results:
        assert r["agree"], f"{r['matrix']}: an engine diverges bitwise"
    # Timing gates apply at >=1e6 nnz (smoke runs stay noise-immune).
    for r in results:
        if r["nnz"] < 1_000_000:
            continue
        assert r["speedup"] >= 5.0, (
            f"{r['matrix']}: {r['speedup']:.2f}x < 5x at "
            f"{r['nnz']} nnz"
        )
        assert r["int32_vs_int64"] >= 1.3, (
            f"{r['matrix']}: compact int32 only "
            f"{r['int32_vs_int64']:.2f}x over int64 (< 1.3x)"
        )
        if r["ttf_pr4_ms"]:
            assert r["ttf_ms"] <= 0.5 * r["ttf_pr4_ms"], (
                f"{r['matrix']}: time-to-first-SpMV "
                f"{r['ttf_ms']:.1f} ms not 2x better than the "
                f"{r['ttf_pr4_ms']:.1f} ms PR4 baseline"
            )
        # The auto heuristic must never lose to single-thread.
        assert (
            r["sharded_ms"]["auto"] <= r["spmv_ms"]["int32"] * 1.10
        ), (
            f"{r['matrix']}: auto sharding "
            f"{r['sharded_ms']['auto']:.2f} ms slower than "
            f"single-thread {r['spmv_ms']['int32']:.2f} ms"
        )
