"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded
around the calls; ``--trace 1`` runs the layer ledger instead (spans
and interleaved blocks over every layer, see ``perfbench/README.md``).
The last line of standard output is the result object; the lines
before it are a human-readable report (host fingerprint, every metric
with its unit).  Exits non-zero, printing no result, when the program
under test cannot be imported or a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics (tracing off), emitted on every workload.
#: ``solve`` emits them too but is not a gated workload: its times
#: move with the host more than any bound allows (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
}

#: Per-layer metrics of the traced run (the layer ledger).
PER_LAYER = {
    "host.copy_gbps": "GB/s",
    "exec.kernel_us": "us",
    "exec.spmv_us": "us",
    "exec.dispatch_us": "us",
    "exec.kernel_gbps": "GB/s",
    "exec.batch_us_per_vec": "us",
    "solvers.iters": "count",
    "solvers.self_ms": "ms",
    "solvers.matvec_ms": "ms",
    "guard.spmv_us": "us",
    "guard.overhead_us": "us",
    "guard.batch_us_per_vec": "us",
    "registry.lease_us": "us",
    "server.query_us": "us",
    "server.envelope_us": "us",
    "serve.batch_mean": "requests",
    "serve.top_rung_frac": "ratio",
    "serve.failed": "count",
    "serve.shed": "count",
    "guard.incidents": "count",
    "serve.paced_p50_ms": "ms",
    "serve.paced_p99_ms": "ms",
    "serve.gen_late_p99_ms": "ms",
    "pipeline.analysis_ms": "ms",
    "pipeline.selection_ms": "ms",
    "pipeline.decomposition_ms": "ms",
    "pipeline.schedule_ms": "ms",
    "pipeline.encode_ms": "ms",
    "registry.coo_digest_ms": "ms",
    "exec.plan_build_ms": "ms",
    "guard.pin_ms": "ms",
    "guard.first_call_ms": "ms",
    "registry.rewarm_ms": "ms",
    "registry.warms": "count",
    "registry.evictions": "count",
    "compile.replay_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

#: Share of ``--seconds`` each workload's part of the ledger gets.
LEDGER_SHARE = {"solve": 0.25, "serve": 0.45, "compile": 0.30}


def _import_program():
    """Put the program's sources on the path and import the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: program sources not found at {SRC} "
            "(run from a full checkout)"
        )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import host
    import timing
    import workloads

    return host, timing, workloads


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0):
    """Run one workload; returns ``(tally, metrics, report)``."""
    host, timing, workloads = _import_program()
    timing.warm_pool()
    tally = timing.Tally()
    report = {}
    if not trace:
        wl = workloads.WORKLOADS[workload](seed, scale)
        try:
            setup_s = wl.setup(tally)
            metrics = wl.timed(seconds, tally)
        finally:
            if hasattr(wl, "close"):
                wl.close()
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = host.peak_rss_mb()
        report.update({k: v for k, v in metrics.items()
                       if k not in END_TO_END})
        report.update(getattr(wl, "extra", {}))
        copy = host.copy_gbps()
    else:
        parts = {name: cls(seed, scale)
                 for name, cls in workloads.WORKLOADS.items()}
        metrics = {}
        try:
            for wl in parts.values():
                wl.setup(tally, repeats=1)
            copy = host.copy_gbps()
            metrics["host.copy_gbps"] = copy
            for name, wl in parts.items():
                metrics.update(
                    wl.ledger(seconds * LEDGER_SHARE[name], tally)
                )
        finally:
            parts["serve"].close()
        metrics["bench.trace_overhead_frac"] = parts[workload].overhead
    report["host"] = host.fingerprint(copy)
    return tally, metrics, report


def result_line(tally, metrics: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "serve", "compile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        tally, metrics, report = measure(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
        result = result_line(tally, metrics, bool(args.trace))
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 1
    print(f"host: {json.dumps(report.pop('host'))}")
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"wall={time.perf_counter() - t0:.1f}s")
    for name, item in result["metrics"].items():
        print(f"  {name:<28s} {item['value']:>14.6g} {item['unit']}")
    for name, value in report.items():
        print(f"  {name:<28s} {value:>14.6g} (not gated)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
