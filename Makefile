# Convenience targets for the SPASM reproduction.

.PHONY: install test lint analyze verify bench bench-smoke faults-smoke serve-smoke reproduce examples clean

install:
	pip install -e .

test:
	pytest tests/

lint:
	ruff check src tests examples
	mypy src/repro/verify src/repro/pipeline src/repro/exec \
	    src/repro/analyze src/repro/core/encoding.py

# Static analysis gate: prove the five plan safety obligations over the
# whole synth suite (exit 1 on any refuted proof; JSON archived as a CI
# artifact) and run the AST determinism/safety self-lint; any self-lint
# finding fails (exit 1).
analyze:
	python -m repro analyze --scale 0.2 --json > BENCH_analyze.json
	python -c "import json; r = json.load(open('BENCH_analyze.json')); \
	    print('%d matrices, %d refuted obligations' % \
	    (r['matrices'], r['refuted']))"
	python -m repro analyze --self

verify:
	python -m repro verify tmt_sym --scale 0.1
	python -m repro verify t2em --scale 0.05 --hardware SPASM_4_1

bench:
	pytest benchmarks/ --benchmark-only

# One synthetic workload through the full pipeline with the per-stage
# trace written out — the CI smoke proof that compile + trace + JSON
# reporting stay healthy (uploads BENCH_pipeline.json as an artifact) —
# plus the execution-plan bench on tiny matrices.  The bench records
# build_ms (fused vs compile), per-dtype spmv_ms, sharded_ms,
# batch_qps and a per-backend kernel sweep (every available
# registered backend, each bitwise-gated against the gather
# reference) into BENCH_exec.json; any bitwise divergence between
# the float64 engines (naive / int32 / int64 / sharded / guarded /
# batch / per-backend) fails the build at every scale.  The timing
# gates (5x over naive, 1.3x int32 over int64, 2x time-to-first-SpMV,
# auto-sharding never losing) only arm at full bench scale
# (>=1e6 nnz).  The schedule determinism check compiles one family
# with --jobs 1 and --jobs 2 and fails if the chosen tile size or
# hardware config differ.
bench-smoke:
	python -m repro backends
	python -m repro compile tmt_sym --scale 0.1 --json \
	    --trace BENCH_pipeline.json > /dev/null
	python -c "import json; t = json.load(open('BENCH_pipeline.json')); \
	    print('\n'.join('%-14s %8.2f ms  cache=%s' % \
	    (e['name'], e['wall_ms'], e['cache']) for e in t['events']))"
	python -c "import json, subprocess, sys; \
	    pick = lambda jobs: (lambda r: (r['tile_size'], r['hardware']))( \
	        json.loads(subprocess.check_output([sys.executable, '-m', \
	        'repro', 'compile', 'c-73', '--jobs', jobs, '--json']))); \
	    serial, parallel = pick('1'), pick('2'); \
	    print('schedule --jobs 1: %s @ tile=%d' % serial[::-1]); \
	    print('schedule --jobs 2: %s @ tile=%d' % parallel[::-1]); \
	    sys.exit(0 if serial == parallel else 'schedule depends on --jobs')"
	REPRO_BENCH_SCALE=0.04 pytest benchmarks/bench_exec_plan.py \
	    --benchmark-disable -q

# Seeded fault-injection campaign (smoke preset: 56 guarded calls
# across stream/value/plan/cache/worker/image surfaces; plan flips are
# byte-addressed, so compact int32 arrays are in the bit-flip
# surface).  A single escaped fault — a silently wrong SpMV output —
# or an injection that never fired exits nonzero and fails the build;
# BENCH_faults.json is archived as a CI artifact.
faults-smoke:
	python -m repro faults --campaign smoke --quiet \
	    --out BENCH_faults.json

# Serving-layer smoke: the chaos-smoke campaign (stream/value/plan/
# cache/worker faults fired at a live SpmvServer between mixed-tenant
# bursts; an escaped fault — an ok response with a wrong result — or
# an unfired injection exits nonzero), then the serving benchmark,
# which records sustained QPS and clean-vs-chaos p50/p95/p99 into
# BENCH_serve.json and fails on any escape, any clean-phase failure
# or non-deadline shed, or a chaos p99 outside the envelope of its
# own clean phase.
serve-smoke:
	python -m repro faults --campaign chaos-smoke --quiet --out BENCH_chaos.json
	pytest benchmarks/bench_serve.py --benchmark-disable -q

reproduce:
	python -m repro reproduce --out reproduction

examples:
	python examples/quickstart.py
	python examples/fem_cg_solver.py
	python examples/graph_pagerank.py
	python examples/codesign_exploration.py
	python examples/advanced_tuning.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	    reproduction benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
