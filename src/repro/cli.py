"""Command-line interface.

::

    python -m repro suite                     # list the Table II workloads
    python -m repro analyze tmt_sym           # pattern histogram + spy plot
    python -m repro compile matrix.mtx        # full SPASM pipeline report
    python -m repro storage c-73              # Figure 11 format comparison
    python -m repro compare raefsky3          # throughput vs baselines
    python -m repro verify matrix.spasm.npz   # static invariant check
    python -m repro verify --scale 0.2        # the whole synth suite
    python -m repro verify --self             # codebase determinism lint
    python -m repro run tmt_sym --engine plan # timed numeric SpMV runs

A positional ``matrix`` argument is either a Table II workload name or
a path to a Matrix Market ``.mtx`` file; ``--scale`` grows/shrinks the
synthetic workloads.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.frequency import top_pattern_report
from repro.analysis.report import format_table
from repro.analysis.spy import spy_with_border
from repro.analysis.storage_compare import spasm_storage_bytes
from repro.baselines import (
    CuSparseRTX3090Model,
    HiSparseModel,
    SERPENS_A16,
    SERPENS_A24,
    SpasmModel,
)
from repro.core import SpasmCompiler, analyze_local_patterns
from repro.matrix import read_matrix_market, storage_report
from repro.matrix.coo import COOMatrix
from repro.synth import WORKLOAD_SUITE, load_workload, workload_names


def load_matrix(spec: str, scale: float) -> COOMatrix:
    """Resolve a matrix argument: workload name or .mtx path."""
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    return load_workload(spec, scale=scale)


def cmd_suite(args) -> int:
    rows = [
        [
            s.name, s.domain, f"{s.paper_nnz:.2e}",
            f"{s.paper_density:.2e}", s.pattern_kind,
        ]
        for s in WORKLOAD_SUITE
    ]
    print(format_table(
        ["name", "domain", "paper nnz", "paper density", "pattern kind"],
        rows,
        title="Table II workload suite",
    ))
    return 0


def cmd_analyze(args) -> int:
    """The local-pattern histogram report of one matrix."""
    coo = load_matrix(args.matrix, args.scale)
    print(f"{args.matrix}: shape={coo.shape}, nnz={coo.nnz}, "
          f"density={coo.density:.3e}")
    if not args.no_spy:
        print(spy_with_border(coo))
    histogram = analyze_local_patterns(coo, k=args.pattern_size)
    print()
    print(top_pattern_report(args.matrix, histogram, n=args.top))
    return 0


def make_compiler(args) -> SpasmCompiler:
    """A compiler configured from the shared pipeline CLI flags."""
    return SpasmCompiler(
        cache_dir=getattr(args, "cache_dir", None),
        verify=getattr(args, "verify", False),
    )


def write_trace(args, program) -> None:
    """Honor ``--trace FILE``: dump the per-stage trace as JSON."""
    trace_path = getattr(args, "trace", None)
    if trace_path and program.trace is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(program.trace.to_json() + "\n")


def cmd_compile(args) -> int:
    import json

    coo = load_matrix(args.matrix, args.scale)
    program = make_compiler(args).compile(coo)
    breakdown = program.estimate()
    write_trace(args, program)
    if args.json:
        report = program.report
        payload = {
            "matrix": args.matrix,
            "shape": list(coo.shape),
            "nnz": coo.nnz,
            "portfolio": program.portfolio.name,
            "tile_size": program.tile_size,
            "hardware": program.hw_config.name,
            "groups": program.spasm.n_groups,
            "padding_rate": program.spasm.padding_rate,
            "bytes_per_nnz": program.spasm.bytes_per_nnz(),
            "est_cycles": breakdown.total_cycles,
            "bottleneck": breakdown.bottleneck,
            "est_gflops": program.estimated_gflops(),
            "report_ms": {
                "analysis": report.analysis_ms,
                "selection": report.selection_ms,
                "decomposition": report.decomposition_ms,
                "schedule": report.schedule_ms,
                "total": report.total_ms,
            },
            "trace": program.trace.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"matrix:        {args.matrix} shape={coo.shape} nnz={coo.nnz}")
    print(f"portfolio:     {program.portfolio.name} "
          f"({program.portfolio.description})")
    print(f"tile size:     {program.tile_size}")
    print(f"hardware:      {program.hw_config.describe()}")
    print(f"groups:        {program.spasm.n_groups} "
          f"(padding rate {program.spasm.padding_rate:.2%})")
    print(f"storage:       {program.spasm.bytes_per_nnz():.2f} bytes/nnz")
    print(f"est. cycles:   {breakdown.total_cycles:.0f} "
          f"(bottleneck: {breakdown.bottleneck})")
    print(f"est. speed:    {program.estimated_gflops():.2f} GFLOP/s")
    print("preprocessing: "
          f"analysis {program.report.analysis_ms:.1f} ms, "
          f"selection {program.report.selection_ms:.1f} ms, "
          f"decomposition {program.report.decomposition_ms:.1f} ms, "
          f"schedule {program.report.schedule_ms:.1f} ms")
    if args.cache_dir:
        hits = ", ".join(
            f"{event.name}={event.cache}" for event in program.trace
        )
        print(f"cache:         {hits}")
    return 0


def cmd_storage(args) -> int:
    coo = load_matrix(args.matrix, args.scale)
    spasm_bytes = spasm_storage_bytes(coo)
    report = storage_report(coo, args.matrix, spasm_bytes=spasm_bytes)
    rows = [
        [fmt, report.bytes_by_format[fmt], report.improvement(fmt)]
        for fmt in report.formats
    ]
    print(format_table(
        ["format", "bytes", "improvement vs COO"],
        rows,
        title=f"Storage cost of {args.matrix}",
    ))
    return 0


def cmd_compare(args) -> int:
    coo = load_matrix(args.matrix, args.scale)
    spasm = SpasmModel()
    baselines = [
        HiSparseModel(), SERPENS_A16(), SERPENS_A24(),
        CuSparseRTX3090Model(),
    ]
    spasm_gflops = spasm.gflops(coo)
    rows = [["SPASM", spasm_gflops, 1.0]]
    for model in baselines:
        gflops = model.gflops(coo)
        rows.append([model.name, gflops, spasm_gflops / gflops])
    print(format_table(
        ["platform", "GFLOP/s", "SPASM speedup"],
        rows,
        title=f"Modeled SpMV throughput on {args.matrix}",
    ))
    return 0


def cmd_encode(args) -> int:
    """Compile a matrix and persist the SPASM encoding."""
    from repro.core import save_spasm

    coo = load_matrix(args.matrix, args.scale)
    program = make_compiler(args).compile(coo)
    write_trace(args, program)
    save_spasm(args.output, program.spasm)
    print(f"encoded {args.matrix}: {program.portfolio.name}, "
          f"tile={program.tile_size}, "
          f"{program.spasm.storage_bytes()} bytes, "
          f"padding {program.spasm.padding_rate:.1%}")
    print(f"wrote {args.output} "
          f"(recommended hardware: {program.hw_config.name})")
    return 0


def cmd_spmv(args) -> int:
    """Run one SpMV from a persisted encoding."""
    import numpy as np

    from repro.core import load_spasm
    from repro.hw import DEFAULT_CONFIGS, SpasmAccelerator

    spasm = load_spasm(args.encoding)
    rng = np.random.default_rng(args.seed)
    x = rng.random(spasm.shape[1])
    config = next(
        c for c in DEFAULT_CONFIGS if c.name == args.hardware
    )
    result = SpasmAccelerator(config).run(spasm, x, engine="fast")
    reference = spasm.spmv(x)
    ok = np.allclose(result.y, reference)
    print(f"{args.encoding}: shape={spasm.shape}, "
          f"groups={spasm.n_groups}")
    print(f"simulated on {config.name}: {result.cycles:.0f} cycles, "
          f"{result.gflops:.2f} GFLOP/s, bottleneck {result.bottleneck}")
    print(f"verification vs format semantics: "
          f"{'exact' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_run(args) -> int:
    """Numerically execute timed SpMV iterations on a matrix.

    ``--engine naive`` re-expands the stream every call (the reference
    execution); ``--engine plan`` compiles the
    :class:`~repro.exec.plan.ExecutionPlan` once and runs the cached
    compact-layout kernel, sharded over ``--jobs`` threads (``0`` =
    the plan's own nnz heuristic).  ``--batch N`` times N queries per
    call through the blocked SpMM engine and reports queries/s.
    Every engine is checked **bitwise** against the naive reference
    before timing; any divergence exits 1.
    """
    import json
    import time

    import numpy as np

    coo = load_matrix(args.matrix, args.scale)
    reorder = None
    if args.reorder:
        from repro.core.reorder import best_reordering, reorder_gain

        reorder = best_reordering(coo)
        gain = reorder_gain(coo, reorder)
        coo = reorder.matrix
    # --jobs 0 selects the plan's automatic shard heuristic.
    jobs = args.jobs if args.jobs > 0 else None

    program = make_compiler(args).compile(coo)
    spasm = program.spasm
    write_trace(args, program)
    rng = np.random.default_rng(args.seed)
    x = rng.random(spasm.shape[1])

    plan = spasm.plan()
    reference = spasm.spmv_naive(x)
    check_note = "bitwise equal to naive"
    if not np.array_equal(plan.spmv(x, jobs=jobs), reference):
        print("error: plan and naive engines diverge",
              file=sys.stderr)
        return 1

    guard = None
    if args.engine == "guarded":
        from repro.resilience import ExecutionGuard

        guard = ExecutionGuard(spasm, seed=args.seed)

    if args.batch > 0:
        xs = np.ascontiguousarray(
            rng.random((args.batch, spasm.shape[1]))
        )
        batch_ref = np.stack([spasm.spmv_naive(row) for row in xs])
        if args.engine == "plan":
            def step():
                return plan.spmv_batch(xs, jobs=jobs)
        elif args.engine == "guarded":
            def step():
                return guard.spmv_batch(xs, jobs=jobs)
        else:
            def step():
                return np.stack(
                    [spasm.spmv_naive(row) for row in xs]
                )
        if not np.array_equal(step(), batch_ref):
            print("error: batched and per-query engines diverge",
                  file=sys.stderr)
            return 1
    elif args.engine == "plan":
        def step():
            return plan.spmv(x, jobs=jobs)
    elif args.engine == "guarded":
        def step():
            return guard.spmv(x, jobs=jobs)
    else:
        def step():
            return spasm.spmv_naive(x)

    times = []
    for __ in range(args.repeat):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    best = min(times)
    flops = 2 * spasm.source_nnz + spasm.shape[0]

    # The fully resolved configuration, auditable from scripts: what
    # actually executed after every auto heuristic had its say.
    if args.engine == "naive":
        layout = "float64"
        jobs_eff = 1
    else:
        jobs_eff = jobs if jobs is not None else plan._auto_jobs()
        layout = f"{plan.cols.dtype.name}/{plan.vals.dtype.name}"
    resolved = {
        "engine": args.engine,
        "layout": layout,
        "jobs": int(jobs_eff),
        "jobs_auto": jobs is None,
        "portfolio": program.portfolio.name,
        "tile_size": program.tile_size,
    }

    if args.json:
        payload = {
            "matrix": args.matrix,
            "shape": list(spasm.shape),
            "nnz": spasm.source_nnz,
            "resolved": resolved,
            "timing": {
                "best_ms": best * 1e3,
                "repeat": args.repeat,
                "gflops": (args.batch or 1) * flops / best / 1e9,
            },
            "check": {"agree": True, "note": check_note},
        }
        if args.batch > 0:
            payload["timing"]["batch_queries"] = args.batch
            payload["timing"]["qps"] = args.batch / best
        if reorder is not None:
            payload["reorder"] = gain
        if guard is not None:
            payload["guard_incidents"] = len(guard.log)
        print(json.dumps(payload, indent=2))
        return 0

    jobs_note = f"auto({jobs_eff})" if jobs is None else str(jobs_eff)
    print(f"matrix:   {args.matrix} shape={spasm.shape} "
          f"nnz={spasm.source_nnz}")
    print(f"engine:   {args.engine} (jobs={jobs_note})")
    if reorder is not None:
        print(f"reorder:  {gain['before_bytes_per_nnz']:.2f} -> "
              f"{gain['after_bytes_per_nnz']:.2f} bytes/nnz "
              f"({gain['gain']:.2f}x storage gain; outputs are in "
              "the reordered index space)")
    if args.engine in ("plan", "guarded"):
        print(f"plan:     {plan.describe()} "
              f"(built in {plan.build_ms:.1f} ms)")
    if args.batch > 0:
        qps = args.batch / best
        print(f"timing:   best {best * 1e3:.3f} ms of {args.repeat} "
              f"runs for {args.batch} queries "
              f"({qps:.1f} queries/s, "
              f"{args.batch * flops / best / 1e9:.2f} GFLOP/s)")
    else:
        print(f"timing:   best {best * 1e3:.3f} ms of {args.repeat} "
              f"runs ({flops / best / 1e9:.2f} GFLOP/s)")
    print(f"check:    plan vs naive engines agree ({check_note})")
    if guard is not None:
        incidents = len(guard.log)
        print(f"guard:    {incidents} incident(s) logged")
        if incidents:
            print(guard.log.render())
    return 0


def cmd_verify(args) -> int:
    """Statically check SPASM artifacts without simulating them.

    ``verify ARTIFACT`` checks one target, bare ``verify`` every
    synth-suite workload; any error (or, with ``--strict``, warning)
    exits 1.  ``verify --self`` runs the codebase self-lint instead.
    """
    import json

    if args.self_lint:
        return _verify_self(args)
    config = None
    if args.hardware:
        from repro.hw import DEFAULT_CONFIGS

        config = next(
            c for c in DEFAULT_CONFIGS if c.name == args.hardware
        )
    names = (
        [args.artifact] if args.artifact is not None
        else workload_names()
    )
    reports = []
    for name in names:
        report = _verify_target(name, args.scale, config)
        reports.append(dict(report.as_dict(), matrix=name))
        if not args.json:
            if len(names) > 1:
                print(f"== {name}")
            print(report.render())
    errors = sum(r["errors"] for r in reports)
    warnings = sum(r["warnings"] for r in reports)
    if args.json:
        print(json.dumps({
            "ok": not errors, "matrices": len(reports),
            "errors": errors, "warnings": warnings, "reports": reports,
        }, indent=2))
    elif len(names) > 1:
        print(f"{len(names)} matrices verified: {errors} errors, "
              f"{warnings} warnings")
    failed = bool(errors) or (args.strict and bool(warnings))
    return 1 if failed else 0


def _verify_target(name: str, scale: float, config):
    """Stream and opcode rules, plan rules, then memory-image rules.

    A workload name or ``.mtx`` path is compiled (keeping the source,
    so ``fmt.roundtrip`` runs too) and its memory images are checked
    for the selected bitstream unless ``config`` overrides it; a saved
    ``.npz`` gets memory rules only for an explicit ``config``.  Plan
    rules run only on a stream without errors.
    """
    from repro.verify import verify_memory_image, verify_plan, verify_spasm

    if name.endswith(".npz"):
        from repro.core import load_spasm

        spasm = load_spasm(name)
        source = None
    else:
        source = load_matrix(name, scale)
        program = SpasmCompiler().compile(source)
        spasm = program.spasm
        config = config or program.hw_config
    report = verify_spasm(spasm, source=source)
    if report.ok:
        report.extend(verify_plan(spasm.plan()))
    if config is not None:
        from repro.hw.memory_image import pack_images

        image = pack_images(spasm, config)
        report.extend(verify_memory_image(image, spasm=spasm))
    return report


def _verify_self(args) -> int:
    """Lint ``src/repro``; any finding exits 1."""
    import json

    from repro.verify.lints import self_lint

    findings = self_lint()
    if args.json:
        print(json.dumps({
            "ok": not findings,
            "findings": [f.as_dict() for f in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"self-lint: {len(findings)} finding(s)")
    return 1 if findings else 0


def cmd_faults(args) -> int:
    """Run a seeded fault-injection campaign (gate: zero escapes).

    The preset picks the target: ``smoke``/``full`` fire one fault per
    guarded call across every surface (stream, value, plan, cache,
    worker, image); ``chaos-smoke``/``chaos-full`` fire waves at a
    live server under seeded mixed-tenant load.  Every answer is
    audited bitwise.  Any *escaped* fault — a silently wrong answer —
    or any injection that never fired exits 1.
    """
    import json

    from repro.resilience import render_report, run_campaign, write_report

    def progress(line):
        if not args.quiet:
            print(f"  .. {line}", file=sys.stderr)

    report = run_campaign(
        preset=args.campaign, seed=args.seed,
        cache_dir=args.cache_dir, progress=progress,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote campaign report to {args.out}", file=sys.stderr)
    if report["escapes"]:
        print(
            f"error: {len(report['escapes'])} fault(s) escaped "
            "detection (silently wrong output)",
            file=sys.stderr,
        )
    if report["unfired"]:
        print(
            "error: injection(s) never fired on surface(s): "
            + ", ".join(report["unfired"]),
            file=sys.stderr,
        )
    return 0 if report["passed"] else 1


def _serve_setup(workloads: str, scale: float, cache_dir,
                 byte_budget_mb, seed: int, admission=None,
                 workers: int = 2):
    """Unstarted server + probe dims for the serve/query commands."""
    from repro.pipeline.cache import ArtifactCache
    from repro.serve import serve_matrices
    from repro.synth import load_workload

    cache = ArtifactCache(cache_dir) if cache_dir else None
    budget = (int(byte_budget_mb * (1 << 20))
              if byte_budget_mb else None)
    matrices = {}
    for item in workloads.split(","):
        name, _, item_scale = item.strip().partition(":")
        eff_scale = float(item_scale) if item_scale else scale
        matrices[f"{name}@{eff_scale:g}"] = load_workload(
            name, eff_scale
        )
    server = serve_matrices(
        matrices, cache=cache, byte_budget=budget,
        admission=admission, workers=workers, seed=seed, start=False,
    )
    ncols = {
        plan_name: int(coo.shape[1])
        for plan_name, coo in matrices.items()
    }
    return server, ncols


def cmd_serve(args) -> int:
    """Stand up the SpMV server and drive seeded mixed-tenant load.

    There is no network listener — the server is the in-process query
    engine of :mod:`repro.serve`; this command exercises it end to
    end (admission, batch coalescing, the guarded plan path,
    per-request deadlines) and reports sustained QPS, latency
    percentiles and the full health/stats snapshot.  A ``failed``
    response exits 1.
    """
    import json

    from repro.serve import (
        AdmissionConfig,
        TenantSpec,
        run_load,
        tenant_probes,
    )

    server, ncols = _serve_setup(
        args.workloads, args.scale, args.cache_dir,
        args.plan_budget_mb, args.seed,
        admission=AdmissionConfig(max_queue_per_plan=args.queue,
                                  max_total=args.max_queued),
        workers=args.workers,
    )
    tenants = [
        TenantSpec(name=f"tenant-{idx}", plan=plan_name,
                   deadline_ms=args.deadline_ms, n_probes=4)
        for idx, plan_name in enumerate(sorted(ncols))
    ]
    with server:
        probes = tenant_probes(tenants, ncols, args.seed)
        report = run_load(server, tenants, probes, args.requests,
                          seed=args.seed + 1)
        stats = server.stats()
        health = server.health()
    summary = report.summary()
    if args.json:
        print(json.dumps(
            {"load": summary, "health": health, "stats": stats},
            indent=2, sort_keys=True,
        ))
    else:
        lat = summary["latency_ms"]
        print(f"served {summary['requests']} requests over "
              f"{len(tenants)} tenants: {summary['counts']}")
        print(f"  qps={summary['qps']:.1f}  p50={lat['p50']:.2f} ms  "
              f"p95={lat['p95']:.2f} ms  p99={lat['p99']:.2f} ms")
        print(f"  health: {health}")
        print(f"  registry: hot_bytes={stats['registry']['hot_bytes']}"
              f" evicted={stats['registry']['evicted_total']}"
              f"  shed={stats['admission']['shed']}")
    return 1 if summary["counts"].get("failed") else 0


def cmd_query(args) -> int:
    """One guarded query through the serving engine.

    Compiles (or cache-loads) the workload, serves a single seeded
    probe vector under the optional deadline, and prints the response
    status, latency and output checksum.  Non-``ok`` responses exit 1.
    """
    import hashlib
    import json

    import numpy as np

    from repro.serve import Deadline

    server, ncols = _serve_setup(
        args.workload, args.scale, args.cache_dir, None, args.seed,
        workers=1,
    )
    (plan_name,) = ncols
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(ncols[plan_name])
    deadline = (Deadline.after_ms(args.deadline_ms)
                if args.deadline_ms is not None else None)
    with server:
        response = server.query(plan_name, x, deadline=deadline)
    payload = {
        "plan": plan_name,
        "status": response.status,
        "latency_ms": response.latency_s * 1e3,
        "detail": response.detail,
    }
    if response.ok:
        payload["l2_norm"] = float(np.linalg.norm(response.y))
        payload["sha256"] = hashlib.sha256(
            response.y.tobytes()
        ).hexdigest()[:16]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        line = (f"{plan_name}: {response.status} "
                f"({payload['latency_ms']:.2f} ms)")
        if response.ok:
            line += (f" l2={payload['l2_norm']:.6g} "
                     f"sha256={payload['sha256']}")
        else:
            line += f" -- {response.detail}"
        print(line)
    return 0 if response.ok else 1


def cmd_reproduce(args) -> int:
    """Regenerate the headline evaluation tables in one pass."""
    import pathlib

    from repro.analysis.metrics import (
        bandwidth_efficiency_table,
        energy_table,
        render_throughput,
        throughput_table,
    )
    from repro.analysis.storage_compare import (
        render_storage_comparison,
        suite_storage_reports,
    )
    from repro.synth import load_suite

    names = args.matrices.split(",") if args.matrices else None
    matrices = [
        (spec.name, coo)
        for spec, coo in load_suite(scale=args.scale, names=names)
    ]
    spasm = SpasmModel(cache_dir=args.cache_dir)
    baselines = [
        HiSparseModel(), SERPENS_A16(), SERPENS_A24(),
        CuSparseRTX3090Model(),
    ]
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sections = {}
    sections["storage"] = render_storage_comparison(
        suite_storage_reports(matrices)
    )
    throughput = throughput_table(matrices, spasm, baselines)
    sections["throughput"] = render_throughput(
        throughput, [m.name for m in baselines]
    )
    be = bandwidth_efficiency_table(matrices, spasm, baselines)
    be_lines = ["Bandwidth efficiency (min / geomean / max):"]
    for name, s in be["summary"].items():
        be_lines.append(
            f"  vs {name:<12s} {s['min']:.2f}x / {s['geomean']:.2f}x / "
            f"{s['max']:.2f}x"
        )
    sections["bandwidth_efficiency"] = "\n".join(be_lines)
    energy = energy_table(matrices, spasm, baselines)
    sections["energy"] = format_table(
        ["platform", "power (W)", "geomean GFLOP/s", "(GFLOP/s)/W"],
        [
            [r["name"], r["power_w"], r["gflops"], r["efficiency"]]
            for r in energy
        ],
        title="Power and energy efficiency",
    )

    for name, text in sections.items():
        (out_dir / f"{name}.txt").write_text(text + "\n",
                                             encoding="utf-8")
        print(text)
        print()
    print(f"wrote {len(sections)} reports to {out_dir}/")
    return 0


def int_at_least(low: int):
    """An argparse ``type`` accepting integers ``>= low``.

    A bad value exits 2 with argparse's usage error naming the flag.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {value}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPASM SpMV acceleration framework (HPCA 2025 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the Table II workload suite")

    def add_matrix_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "matrix",
            help=f"workload name ({', '.join(workload_names()[:3])}, ...)"
                 " or a .mtx file path",
        )
        p.add_argument("--scale", type=float, default=1.0,
                       help="synthetic workload scale factor")
        return p

    def add_pipeline_flags(p):
        p.add_argument("--cache-dir", default=None,
                       help="content-addressed artifact cache directory "
                            "(recompiles of unchanged workloads are "
                            "served from disk)")
        return p

    analyze = add_matrix_command(
        "analyze", "local pattern histogram and spy plot"
    )
    analyze.add_argument("--top", type=int, default=8,
                         help="patterns to display")
    analyze.add_argument("--pattern-size", type=int, default=4,
                         help="local pattern size k")
    analyze.add_argument("--no-spy", action="store_true",
                         help="skip the spy plot")

    compile_p = add_matrix_command(
        "compile", "run the full SPASM pipeline"
    )
    add_pipeline_flags(compile_p)
    compile_p.add_argument("--json", action="store_true",
                           help="emit the full result (per-stage trace "
                                "included) as JSON")
    compile_p.add_argument("--trace", default=None, metavar="FILE",
                           help="write the per-stage pipeline trace to "
                                "FILE as JSON")
    compile_p.add_argument("--verify", action="store_true",
                           help="mount the static verifier as a final "
                                "pipeline pass")
    add_matrix_command("storage", "compare storage formats")
    add_matrix_command("compare", "compare modeled platforms")

    encode = add_matrix_command(
        "encode", "compile and persist a SPASM encoding"
    )
    add_pipeline_flags(encode)
    encode.add_argument("--trace", default=None, metavar="FILE",
                        help="write the per-stage pipeline trace to "
                             "FILE as JSON")
    encode.add_argument("--verify", action="store_true",
                        help="mount the static verifier as a final "
                             "pipeline pass")
    encode.add_argument("-o", "--output", default="matrix.spasm.npz",
                        help="output .npz path")

    run = add_matrix_command(
        "run", "timed numeric SpMV runs through a chosen engine"
    )
    add_pipeline_flags(run)
    run.add_argument("--jobs", type=int_at_least(0), default=1,
                     help="execution shard count (default 1); 0 "
                          "selects the plan's nnz auto-heuristic")
    run.add_argument("--engine", default="plan",
                     choices=["naive", "plan", "guarded"],
                     help="'naive' re-expands the stream per call; "
                          "'plan' runs the compiled execution plan "
                          "(default); 'guarded' adds the resilience "
                          "guard (integrity checks + fallback)")
    run.add_argument("--repeat", type=int_at_least(1), default=5,
                     help="timed iterations (the best is reported)")
    run.add_argument("--batch", type=int_at_least(0), default=0,
                     help="queries per call: 0 runs single-vector "
                          "SpMV (default); N>0 times N queries per "
                          "call through the blocked SpMM engine and "
                          "reports queries/s")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the random x vector")
    run.add_argument("--reorder", action="store_true",
                     help="apply the best structural reordering "
                          "(identity / block-signature / degree sort) "
                          "before compiling and report the storage "
                          "gain")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write the per-stage pipeline trace to FILE "
                          "as JSON")
    run.add_argument("--json", action="store_true",
                     help="emit one JSON payload with the timing and "
                          "a 'resolved' object echoing the fully "
                          "resolved configuration (layout, jobs, "
                          "portfolio)")

    spmv = sub.add_parser(
        "spmv", help="run one simulated SpMV from a saved encoding"
    )
    spmv.add_argument("encoding", help="path to a .npz from 'encode'")
    spmv.add_argument("--hardware", default="SPASM_4_1",
                      choices=["SPASM_4_1", "SPASM_3_4", "SPASM_3_2"])
    spmv.add_argument("--seed", type=int, default=0,
                      help="seed for the random x vector")

    verify = sub.add_parser(
        "verify",
        help="statically check SPASM artifacts against the stream, "
             "opcode, plan and memory-image invariants, or lint the "
             "code base",
    )
    verify.add_argument(
        "artifact", nargs="?", default=None,
        help="a .npz encoding from 'encode', a workload name, or a "
             ".mtx path (the latter two are compiled on the fly and "
             "additionally checked for decode equivalence); omit to "
             "check the whole synth suite",
    )
    verify.add_argument("--scale", type=float, default=1.0,
                        help="synthetic workload scale factor")
    verify.add_argument("--hardware", default=None,
                        choices=["SPASM_4_1", "SPASM_3_4", "SPASM_3_2"],
                        help="pack and verify the HBM memory images "
                             "for this bitstream (default: the "
                             "compiled program's own; none for .npz)")
    verify.add_argument("--self", dest="self_lint", action="store_true",
                        help="run the AST determinism/safety lint "
                             "over src/repro instead; any finding "
                             "exits 1")
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as errors in the exit "
                             "code")

    faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign against the guard or "
             "a live server (an escaped or unfired fault exits 1)",
    )
    faults.add_argument("--campaign", default="smoke",
                        choices=["smoke", "full", "chaos-smoke",
                                 "chaos-full"],
                        help="preset: 'smoke' (56 guarded calls, CI) or "
                             "'full' (220); 'chaos-smoke'/'chaos-full' "
                             "fire waves at a live server under load")
    faults.add_argument("--seed", type=int, default=0,
                        help="master seed; the campaign is a pure "
                             "function of it")
    faults.add_argument("--cache-dir", default=None,
                        help="cache directory to corrupt (default: a "
                             "throwaway temp dir)")
    faults.add_argument("--json", action="store_true",
                        help="emit the full report as JSON on stdout")
    faults.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    faults.add_argument("--quiet", action="store_true",
                        help="suppress per-surface progress lines")

    serve = sub.add_parser(
        "serve",
        help="stand up the in-process SpMV server and drive seeded "
             "mixed-tenant load through it",
    )
    serve.add_argument(
        "--workloads", default="tmt_sym,mip1",
        help="comma-separated workload names, each optionally "
             "'name:scale' (default scale from --scale)",
    )
    serve.add_argument("--scale", type=float, default=0.5,
                       help="default synthetic workload scale")
    serve.add_argument("--requests", type=int, default=200,
                       help="load-generator request count")
    serve.add_argument("--workers", type=int, default=2,
                       help="server worker threads")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline for every tenant")
    serve.add_argument("--queue", type=int, default=64,
                       help="per-plan admission queue bound")
    serve.add_argument("--max-queued", type=int, default=256,
                       help="global admission queue bound")
    serve.add_argument("--plan-budget-mb", type=float, default=None,
                       help="registry hot-plan byte budget (LRU "
                            "eviction above it)")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache (plan artifacts warm "
                            "from here)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for probes and tenant traffic")
    serve.add_argument("--json", action="store_true",
                       help="emit load/health/stats as JSON")

    query = sub.add_parser(
        "query",
        help="run one guarded query through the serving engine",
    )
    query.add_argument("workload",
                       help="workload name, optionally 'name:scale'")
    query.add_argument("--scale", type=float, default=0.5,
                       help="synthetic workload scale")
    query.add_argument("--seed", type=int, default=0,
                       help="seed for the probe vector")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="request deadline; an expired request is "
                            "shed, never answered late")
    query.add_argument("--cache-dir", default=None,
                       help="artifact cache for plan warmup")
    query.add_argument("--json", action="store_true",
                       help="emit the response as JSON")

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate the headline evaluation tables in one pass",
    )
    reproduce.add_argument("--out", default="reproduction",
                           help="output directory for the reports")
    reproduce.add_argument("--scale", type=float, default=1.0,
                           help="synthetic workload scale factor")
    reproduce.add_argument(
        "--matrices", default=None,
        help="comma-separated workload subset (default: all 20)",
    )
    add_pipeline_flags(reproduce)
    return parser


COMMANDS = {
    "suite": cmd_suite,
    "analyze": cmd_analyze,
    "compile": cmd_compile,
    "storage": cmd_storage,
    "compare": cmd_compare,
    "encode": cmd_encode,
    "run": cmd_run,
    "spmv": cmd_spmv,
    "verify": cmd_verify,
    "faults": cmd_faults,
    "serve": cmd_serve,
    "query": cmd_query,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Every anticipated failure (unknown workload, unreadable file,
    malformed artifact, invariant violation) exits 1 with the message
    on stderr; nothing is swallowed into a 0 exit.
    """
    import zipfile

    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (OSError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
