# Convenience targets for the SPASM reproduction.

.PHONY: install test lint analyze verify bench bench-smoke faults-smoke serve-smoke reproduce examples clean

install:
	pip install -e .

test:
	pytest tests/

lint:
	ruff check src tests examples
	mypy src/repro/verify src/repro/pipeline src/repro/exec \
	    src/repro/core/encoding.py

# Static analysis gate: run every verifier rule family (stream, opcode,
# plan and memory image) over the whole synth suite (exit 1 on any
# error; JSON archived as a CI artifact), then the AST
# determinism/safety self-lint; any self-lint finding fails (exit 1).
analyze:
	python -m repro verify --scale 0.2 --json > BENCH_analyze.json
	python -c "import json; r = json.load(open('BENCH_analyze.json')); \
	    print('%d matrices, %d errors' % (r['matrices'], r['errors']))"
	python -m repro verify --self

verify:
	python -m repro verify tmt_sym --scale 0.1
	python -m repro verify t2em --scale 0.05 --hardware SPASM_4_1

bench:
	pytest benchmarks/ --benchmark-only

# One synthetic workload through the full pipeline with the per-stage
# trace written out — the CI smoke proof that compile + trace + JSON
# reporting stay healthy (uploads BENCH_pipeline.json as an artifact) —
# plus the execution-plan bench on tiny matrices.  The bench records
# build_ms (plan stamp and build wall), per-dtype spmv_ms, sharded_ms
# and batch_qps into BENCH_exec.json; any bitwise divergence from the
# naive engine (int32 / int64 / sharded / guarded / batch) fails the
# build at every scale.  The timing
# gates (5x over naive, 1.3x int32 over int64, 2x time-to-first-SpMV,
# auto-sharding never losing) only arm at full bench scale
# (>=1e6 nnz).
bench-smoke:
	python -m repro compile tmt_sym --scale 0.1 --json \
	    --trace BENCH_pipeline.json > /dev/null
	python -c "import json; t = json.load(open('BENCH_pipeline.json')); \
	    print('\n'.join('%-14s %8.2f ms' % \
	    (e['name'], e['wall_ms']) for e in t['events']))"
	REPRO_BENCH_SCALE=0.04 pytest benchmarks/bench_exec_plan.py \
	    --benchmark-disable -q

# Seeded fault-injection campaign (smoke preset: 46 guarded calls
# across stream/value/plan/worker/image surfaces; plan flips are
# byte-addressed, so compact int32 arrays are in the bit-flip
# surface).  A single escaped fault — a silently wrong SpMV output —
# or an injection that never fired exits nonzero and fails the build;
# BENCH_faults.json is archived as a CI artifact.
faults-smoke:
	python -m repro faults --campaign smoke --quiet \
	    --out BENCH_faults.json

# Serving-layer smoke: the chaos-smoke campaign (stream/value/plan/
# worker faults fired at a live SpmvServer between mixed-tenant
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
