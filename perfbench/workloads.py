"""The three workloads: inputs from the seed, set-up, timed loop, checks.

Each workload class builds its inputs in ``__init__`` (matrices are
fixed; vectors, probe sequences and right-hand sides come from the
seed), gets the program ready in :meth:`setup`, runs its closed loop in
:meth:`timed`, and measures its layers in :meth:`ledger` for the
traced run.  Every answer is checked against a reference the program
did not compute through the path under test; a miss is counted on the
shared :class:`~timing.Tally`, never raised.
"""

from __future__ import annotations

import gc
import queue
import time
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core import SpasmCompiler
from repro.exec.backends import get_backend
from repro.matrix.coo import COOMatrix
from repro.pipeline.cache import matrix_digest
from repro.resilience.guard import ExecutionGuard
from repro.serve import SERVE_GUARD, PlanRegistry, SpmvServer
from repro.solvers import LinearOperator, conjugate_gradient
from repro.synth import load_workload

from timing import (
    CpuRotation,
    Spans,
    Tally,
    med,
    paired_diff,
    pct,
    per_cpu,
    timed_blocks,
)

#: Set-ups per run, rotated over the CPUs; ``setup_s`` is their median.
SETUP_REPEATS = 6

#: CG: relative residual target and iteration cap.
SOLVE_RTOL = 1e-8
SOLVE_MAX_ITERS = 5000

#: Serving tenants: (synth workload, scale, traffic weight).
SERVE_TENANTS = (
    ("tmt_sym", 1.0, 3),
    ("mip1", 0.5, 3),
    ("af_shell10", 8.0, 1),
)
SERVE_OUTSTANDING = 16
SERVE_PROBES = 4
#: Offered load of the paced (open-loop) phase, below capacity.
PACED_RATE = 800.0
BATCH = 8
#: A response slower than this fails the run instead of hanging it.
RESPONSE_TIMEOUT_S = 60.0

#: One matrix per pattern family for the compile workload.
COMPILE_SET = (
    ("tmt_sym", 1.0),
    ("Goodwin_054", 1.0),
    ("mip1", 0.5),
    ("raefsky3", 1.0),
    ("x104", 1.0),
    ("c-73", 1.0),
    ("stormG2_1000", 1.0),
    ("af_shell10", 1.0),
)
PIPELINE_STAGES = ("analysis", "selection", "decomposition", "schedule",
                   "encode")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _same(a, b) -> bool:
    """Bitwise float64 agreement (``-0.0 == 0.0``, as everywhere here)."""
    return a is not None and b is not None and np.array_equal(a, b)


def _matches_source(y: np.ndarray, coo: COOMatrix, x: np.ndarray) -> bool:
    """``y`` equals scipy's product of the generated COO with ``x``.

    The program's references re-expand the stream it encoded, so an
    encode, decomposition or selection bug would agree with itself;
    this product never touches the program.  Only summation-order
    rounding is allowed: ``1e-12`` of ``|A| @ |x|`` per row.
    """
    a = sp.csr_matrix((coo.vals, (coo.rows, coo.cols)), shape=coo.shape)
    bound = 1e-12 * (abs(a) @ np.abs(x))
    return bool(np.all(np.abs(y - a @ x) <= bound))


def _stream_of(registry, name: str):
    """The encoded stream behind a registered name (lease returned)."""
    lease = registry.acquire(name)
    registry.release(lease)
    return lease.spasm


def _timed_setup(build, repeats: int,
                 rotate: bool = True) -> Tuple[float, object]:
    """Median wall time of ``repeats`` fresh set-ups; keeps the last.

    ``rotate`` moves each set-up to the next CPU (the median is then
    taken per CPU).  A set-up that starts threads must not rotate:
    threads inherit the CPU mask of the thread that starts them.
    """
    times, ready = [], None
    cpus = CpuRotation() if rotate else None
    for _ in range(repeats):
        if ready is not None:
            # Tear the previous set-up down first, so set-ups never
            # overlap in memory and peak RSS is that of one.
            if hasattr(ready, "close"):
                ready.close()
            ready = None
            gc.collect()
        cpu = cpus.next() if cpus else None
        t0 = time.perf_counter()
        ready = build()
        times.append((cpu, time.perf_counter() - t0))
    if cpus:
        cpus.restore()
    return per_cpu(times, 50), ready


def _latency_metrics(samples, ok: int, elapsed: float) -> Dict[str, float]:
    """``qps`` and latency percentiles from ``(cpu, seconds)`` samples."""
    if len(samples) == 0:
        return {key: 0.0 for key in ("qps", "lat_p50_ms", "lat_p95_ms",
                                     "lat_p99_ms")}
    return {
        "qps": ok / elapsed if elapsed > 0 else 0.0,
        "lat_p50_ms": per_cpu(samples, 50) * 1e3,
        "lat_p95_ms": per_cpu(samples, 95) * 1e3,
        "lat_p99_ms": per_cpu(samples, 99) * 1e3,
    }


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------


def spd_laplacian(scale: float) -> sp.csr_matrix:
    """Graph Laplacian of the symmetrised ``tmt_sym`` pattern + 0.01 I."""
    a = load_workload("tmt_sym", scale)
    pattern = sp.coo_matrix(
        (np.ones(a.nnz), (a.rows, a.cols)), shape=a.shape
    ).tocsr()
    upper = sp.triu(pattern + pattern.T, k=1).tocsr()
    upper.data[:] = 1.0
    adjacency = (upper + upper.T).tocsr()
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sp.diags(degree + 0.01) - adjacency).tocsr()


class Solve:
    """Back-to-back CG solves through a compiled plan (one caller)."""

    def __init__(self, seed: int, scale: float = 1.0):
        self.matrix = spd_laplacian(scale)
        coo = self.matrix.tocoo()
        self.coo = COOMatrix(coo.row, coo.col, coo.data,
                             shape=coo.shape)
        n = self.matrix.shape[0]
        self.b = _rng(seed, 1).standard_normal(n)
        self.tol = SOLVE_RTOL * float(np.linalg.norm(self.b))
        self.x_probe = _rng(seed, 2).standard_normal(n)
        self.x_batch = _rng(seed, 3).standard_normal((BATCH, n))
        self.plan = None
        self.ref = None

    def setup(self, tally: Tally, repeats: int = SETUP_REPEATS) -> float:
        def build():
            plan = SpasmCompiler(build_plan=True).compile(self.coo).plan
            return plan, conjugate_gradient(
                plan, self.b, tol=self.tol, max_iters=SOLVE_MAX_ITERS
            )

        setup_s, (self.plan, first) = _timed_setup(build, repeats)
        residual = np.linalg.norm(self.b - self.matrix @ first.x)
        tally.check(first.converged and residual < self.tol,
                    f"reference solve: converged={first.converged}, "
                    f"true residual {residual:.3e} vs tol {self.tol:.3e}")
        self.ref = first
        return setup_s

    def solve(self, source=None):
        return conjugate_gradient(
            self.plan if source is None else source, self.b,
            tol=self.tol, max_iters=SOLVE_MAX_ITERS,
        )

    def check(self, result, tally: Tally) -> bool:
        ok = (
            result.converged
            and result.iterations == self.ref.iterations
            and _same(result.x, self.ref.x)
        )
        if ok:
            residual = np.linalg.norm(self.b - self.matrix @ result.x)
            ok = bool(residual < self.tol)
        return tally.check(ok, f"solve: {result.iterations} iterations, "
                               f"converged={result.converged}")

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        lat, ok, cpus = [], 0, CpuRotation()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not lat:
            cpu = cpus.next()
            t0 = time.perf_counter()
            result = self.solve()
            lat.append((cpu, time.perf_counter() - t0))
            ok += self.check(result, tally)
        cpus.restore()
        metrics = _latency_metrics(lat, ok, time.perf_counter() - start)
        self.extra = {"solve_ms": metrics["lat_p50_ms"]}
        return metrics

    # -- traced ---------------------------------------------------------

    def traced_solve(self, spans: Spans):
        """One solve with a span around every matvec of the operator."""
        plan = self.plan
        root = spans.open("solve")

        def matvec(x):
            return spans.call("matvec", plan.spmv, x, jobs=1,
                              parent=root)

        operator = LinearOperator(plan.shape, matvec, plan.diagonal)
        result = self.solve(operator)
        spans.close(root)
        return root, result

    def ledger(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Solver spans (alternating with untraced solves) + exec layers."""
        plain, traced, self_ms, matvec_ms = [], [], [], []
        cpus = CpuRotation()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / 2 or not traced:
            cpu = cpus.next()
            t0 = time.perf_counter()
            self.check(self.solve(), tally)
            plain.append((cpu, (time.perf_counter() - t0) * 1e3))
            spans = Spans()
            root, result = self.traced_solve(spans)
            self.check(result, tally)
            traced.append((cpu, spans.ms(root)))
            matvec_ms.append((cpu, spans.children_ms(root, "matvec")))
            self_ms.append((cpu, traced[-1][1] - matvec_ms[-1][1]))
        cpus.restore()
        metrics = {
            "solvers.iters": float(self.ref.iterations),
            "solvers.self_ms": per_cpu(self_ms, 50),
            "solvers.matvec_ms": per_cpu(matvec_ms, 50),
        }
        metrics.update(self.exec_layers(seconds / 2, tally))
        self.overhead = per_cpu(traced, 50) / per_cpu(plain, 50) - 1.0
        return metrics

    def exec_layers(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Raw csr kernel vs ``plan.spmv`` vs ``plan.spmv_batch``."""
        plan, x, xs = self.plan, self.x_probe, self.x_batch
        engine = get_backend("csr")
        state = engine.prepare(plan)
        out = np.zeros(plan.shape[0])
        engine.spmv(plan, state, x, out, 0, plan.n_segments)
        expected = plan.spmv(x)
        tally.check(_same(out, expected), "csr kernel != plan.spmv")
        ys = plan.spmv_batch(xs)
        tally.check(all(_same(ys[i], plan.spmv(xs[i]))
                        for i in range(BATCH)),
                    "plan.spmv_batch != stacked plan.spmv")
        fns = {
            "kernel": lambda: engine.spmv(plan, state, x, out, 0,
                                          plan.n_segments),
            "spmv": lambda: plan.spmv(x),
            "batch": lambda: plan.spmv_batch(xs),
        }
        us = timed_blocks(fns, seconds, pace="spmv")
        kernel_us = med(us["kernel"])
        nnz, nrows = plan.n_slots, plan.shape[0]
        # Computed bytes of one csr_matvec: cols + vals + indptr + one
        # x element gathered per nonzero + the y write.
        computed = nnz * (4 + 8 + 8) + (nrows + 1) * 4 + nrows * 8
        return {
            "exec.kernel_us": kernel_us,
            "exec.spmv_us": med(us["spmv"]),
            "exec.dispatch_us": paired_diff(us["spmv"], us["kernel"]),
            "exec.kernel_gbps": computed / kernel_us / 1e3,
            "exec.batch_us_per_vec": med(us["batch"]) / BATCH,
        }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class _Stack:
    """One started server over a fresh registry (closed by set-up)."""

    def __init__(self, seed: int, tenants):
        self.registry = PlanRegistry(seed=seed)
        for name, coo, _ in tenants:
            self.registry.register(name, coo=coo)
        self.server = SpmvServer(self.registry).start()

    def close(self) -> None:
        self.server.stop()


class Serve:
    """Closed loop of 16 outstanding requests against ``SpmvServer``."""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.tenants = []
        for workload, base, weight in SERVE_TENANTS:
            coo = load_workload(workload, base * scale)
            self.tenants.append((f"{workload}@{base:g}", coo, weight))
        self.names = [name for name, _, _ in self.tenants]
        weights = np.array([w for _, _, w in self.tenants], dtype=float)
        self.weights = weights / weights.sum()
        rng = _rng(seed, 4)
        self.probes = {
            name: rng.standard_normal((SERVE_PROBES, coo.shape[1]))
            for name, coo, _ in self.tenants
        }
        self.refs: Dict[str, List[np.ndarray]] = {}
        self.stack = None

    def setup(self, tally: Tally, repeats: int = SETUP_REPEATS) -> float:
        def build():
            stack = _Stack(self.seed, self.tenants)
            stack.first = {
                name: stack.server.query(name, self.probes[name][0])
                for name in self.names
            }
            return stack

        setup_s, self.stack = _timed_setup(build, repeats, rotate=False)
        for name, coo, _ in self.tenants:
            spasm = _stream_of(self.stack.registry, name)
            self.refs[name] = [spasm.spmv_naive(p)
                               for p in self.probes[name]]
            for k, (ref, p) in enumerate(zip(self.refs[name],
                                             self.probes[name])):
                tally.check(_matches_source(ref, coo, p),
                            f"serve {name}#{k}: reference != scipy COO @ x")
            self.check(self.stack.first[name], name, 0, tally)
        return setup_s

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
            self.stack = None

    def check(self, response, name: str, k: int, tally: Tally) -> bool:
        ok = response.ok and _same(response.y, self.refs[name][k])
        return tally.check(ok, f"serve {name}#{k}: {response.status} "
                               f"{response.detail}")

    def _sequence(self, stream: int):
        """Endless seeded (tenant, probe) draws in the 3:3:1 mix."""
        rng = _rng(self.seed, stream)
        while True:
            tenants = rng.choice(len(self.names), size=4096,
                                 p=self.weights)
            probes = rng.integers(0, SERVE_PROBES, size=4096)
            for t, k in zip(tenants, probes):
                yield self.names[t], int(k)

    def closed_loop(self, seconds: float, tally: Tally, stream: int,
                    spans: Spans = None,
                    window: float = 0.0) -> Dict[str, object]:
        """Keep :data:`SERVE_OUTSTANDING` requests in flight.

        Completions land on a queue and are verified here, in the one
        generator thread, so at most 16 response vectors are alive.
        Latency runs on the benchmark's own clock, from just before
        ``submit`` to the future's done callback; the server's own
        ``latency_s`` is not used.
        With ``window > 0`` the latency metrics are medians over
        consecutive windows of that many seconds (by completion time),
        so a burst of host noise moves one window, not the result.
        """
        server = self.stack.server
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        draws = self._sequence(stream)
        lat, t_done, good, batched = [], [], [], []
        top = failed = shed = inflight = 0
        start = time.perf_counter()
        end = start + seconds
        while True:
            while inflight < SERVE_OUTSTANDING and (
                    time.perf_counter() < end or not lat):
                name, k = next(draws)
                span = spans.open("request") if spans else None
                t_submit = time.perf_counter()
                future = server.submit(name, self.probes[name][k],
                                       tenant=name)
                future.add_done_callback(
                    lambda f, n=name, k=k, s=span, t=t_submit: done.put(
                        (f, n, k, s, t, time.perf_counter()))
                )
                inflight += 1
            if inflight == 0:
                break
            future, name, k, span, t_submit, t_end = done.get(
                timeout=RESPONSE_TIMEOUT_S)
            inflight -= 1
            if spans is not None:
                spans.close(span)
            response = future.result()
            t_done.append(t_end - start)
            lat.append(t_end - t_submit)
            good.append(self.check(response, name, k, tally))
            failed += response.status == "failed"
            shed += response.status == "shed"
            batched.append(response.batched)
            top += response.level == "tuned"
        windows = int(seconds // window) if window > 0 else 0
        if windows:
            idx = (np.asarray(t_done) // window).astype(int)
            good_a = np.asarray(good)
            per = [
                _latency_metrics([(None, lat[i]) for i in
                                  np.flatnonzero(idx == w)],
                                 good_a[idx == w].sum(), window)
                for w in range(windows)
            ]
            metrics = {key: med([m[key] for m in per]) for key in per[0]}
        else:
            metrics = _latency_metrics([(None, v) for v in lat], sum(good),
                                       time.perf_counter() - start)
        metrics.update(batched=batched, top=top, failed=failed, shed=shed)
        return metrics

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        m = self.closed_loop(seconds, tally, stream=5, window=1.0)
        return {k: m[k] for k in ("qps", "lat_p50_ms", "lat_p95_ms",
                                  "lat_p99_ms")}

    # -- traced ---------------------------------------------------------

    def paced(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Seeded Poisson arrivals at :data:`PACED_RATE` (open loop).

        Latency runs from each request's intended send time, so a
        stalled generator shows up as latency instead of hiding it.
        """
        server = self.stack.server
        rng = _rng(self.seed, 6)
        draws = self._sequence(7)
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        lat, late, inflight = [], [], 0
        start = time.perf_counter()
        due = start
        while True:
            now = time.perf_counter()
            sending = due < start + seconds
            if sending and now >= due:
                name, k = next(draws)
                late.append(now - due)
                future = server.submit(name, self.probes[name][k],
                                       tenant=name)
                future.add_done_callback(
                    lambda f, n=name, k=k, d=due: done.put(
                        (f, n, k, d, time.perf_counter()))
                )
                inflight += 1
                due += rng.exponential(1.0 / PACED_RATE)
                continue
            if not sending and inflight == 0:
                break
            if sending:
                try:
                    item = done.get(timeout=max(due - now, 0.0))
                except queue.Empty:
                    continue
            else:
                item = done.get(timeout=RESPONSE_TIMEOUT_S)
            future, name, k, intended, t_done = item
            inflight -= 1
            lat.append(t_done - intended)
            self.check(future.result(), name, k, tally)
        return {
            "serve.paced_p50_ms": pct(lat, 50) * 1e3,
            "serve.paced_p99_ms": pct(lat, 99) * 1e3,
            "serve.gen_late_p99_ms": pct(late, 99) * 1e3,
        }

    def layer_blocks(self, seconds: float,
                     tally: Tally) -> Dict[str, float]:
        """Nested entry points per tenant, interleaved, mix-weighted.

        ``plan.spmv`` ⊂ ``guard.spmv`` ⊂ lease + guard ⊂
        ``server.query``; the server is idle, so a query pays the
        admission/worker hand-off but no queueing.
        """
        registry, server = self.stack.registry, self.stack.server
        per_tenant = []
        for name in self.names:
            lease = registry.acquire(name)
            guard, spasm = lease.guard, lease.spasm
            registry.release(lease)
            plan = spasm.plan()
            x = self.probes[name][1]
            xs = np.vstack([self.probes[name]] * 2)[:BATCH]
            ref = self.refs[name][1]
            tally.check(_same(guard.spmv(x), ref), f"guard.spmv {name}")
            ys = guard.spmv_batch(xs)
            tally.check(all(_same(ys[i], self.refs[name][i % SERVE_PROBES])
                            for i in range(BATCH)),
                        f"guard.spmv_batch {name}")
            self.check(server.query(name, x), name, 1, tally)
            fns = {
                "spmv": lambda: plan.spmv(x),
                "guard": lambda: guard.spmv(x),
                "batch": lambda: guard.spmv_batch(xs),
                "lease": lambda: registry.release(registry.acquire(name)),
                "query": lambda: server.query(name, x),
            }
            # Whole check intervals, so the sampled oracle is included.
            per_tenant.append(timed_blocks(
                fns, seconds / len(self.names), pace="query",
                multiple=SERVE_GUARD.check_interval))
        w = self.weights

        def mix(fn) -> float:
            return float(sum(wi * fn(us) for wi, us in zip(w, per_tenant)))

        return {
            "guard.spmv_us": mix(lambda us: med(us["guard"])),
            "guard.overhead_us": mix(
                lambda us: paired_diff(us["guard"], us["spmv"])),
            "guard.batch_us_per_vec": mix(
                lambda us: med(us["batch"]) / BATCH),
            "registry.lease_us": mix(lambda us: med(us["lease"])),
            "server.query_us": mix(lambda us: med(us["query"])),
            "server.envelope_us": mix(lambda us: med(
                np.asarray(us["query"]) - np.asarray(us["lease"])
                - np.asarray(us["guard"]))),
        }

    def ledger(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Layer blocks, closed loop with/without spans, paced phase."""
        events_before = len(self.stack.registry.log)
        metrics = self.layer_blocks(seconds * 0.3, tally)
        plain, traced = [], []
        batched, top, n, failed, shed = [], 0, 0, 0, 0
        start, stream = time.perf_counter(), 100
        while time.perf_counter() - start < seconds * 0.4 or not traced:
            for spans in (None, Spans()):
                m = self.closed_loop(0.5, tally, stream, spans)
                stream += 1
                (plain if spans is None else traced).append(
                    m["lat_p50_ms"])
                batched += m["batched"]
                top += m["top"]
                failed += m["failed"]
                shed += m["shed"]
        metrics.update(self.paced(seconds * 0.3, tally))
        metrics.update({
            "serve.batch_mean": float(np.mean(batched)),
            "serve.top_rung_frac": top / len(batched),
            "serve.failed": float(failed),
            "serve.shed": float(shed),
            "guard.incidents": float(
                len(self.stack.registry.log) - events_before),
        })
        self.overhead = med(traced) / med(plain) - 1.0
        return metrics


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------


class Compile:
    """Single-threaded passes over the registry's write path.

    One pass takes every matrix through one cycle in a fresh registry:
    ``register(coo=)`` and the first guarded answer (cold), then an
    explicit evict, re-acquire and answer again (rewarm).  A cycle is
    the workload's operation.
    """

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        rng = _rng(seed, 8)
        self.matrices = []
        for workload, base in COMPILE_SET:
            coo = load_workload(workload, base * scale)
            x = rng.standard_normal(coo.shape[1])
            self.matrices.append((f"{workload}@{base:g}", coo, x))
        self.refs: Dict[str, np.ndarray] = {}

    @staticmethod
    def _answer(registry, name: str, x: np.ndarray) -> np.ndarray:
        lease = registry.acquire(name)
        try:
            return lease.guard.spmv(x)
        finally:
            registry.release(lease)

    def one_pass(self) -> Tuple[Dict[str, list], dict]:
        """Cold + rewarm answers per matrix, cycle times, counters."""
        registry = PlanRegistry(seed=self.seed)
        answers: Dict[str, list] = {}
        cycles, evictions = [], 0
        for name, coo, x in self.matrices:
            t0 = time.perf_counter()
            registry.register(name, coo=coo)
            cold = self._answer(registry, name, x)
            t1 = time.perf_counter()
            evictions += registry.evict(name)
            answers[name] = [cold, self._answer(registry, name, x)]
            cycles.append((t1 - t0, time.perf_counter() - t1))
        warms = sum(e["warms"] for e in registry.stats()["entries"])
        return answers, {"warms": warms, "evictions": evictions,
                         "registry": registry, "cycles": cycles}

    def check(self, answers: Dict[str, list], tally: Tally) -> List[bool]:
        """Per matrix: were both of its answers right?"""
        return [
            all([tally.check(_same(y, self.refs[name]),
                             f"compile {name}: first answer differs")
                 for y in ys])
            for name, ys in answers.items()
        ]

    def setup(self, tally: Tally, repeats: int = SETUP_REPEATS) -> float:
        answers = []

        def build():
            pass_answers, counts = self.one_pass()
            answers.append(pass_answers)
            return counts["registry"]

        setup_s, registry = _timed_setup(build, repeats)
        for name, coo, x in self.matrices:
            self.refs[name] = _stream_of(registry, name).spmv_naive(x)
            tally.check(_matches_source(self.refs[name], coo, x),
                        f"compile {name}: reference != scipy COO @ x")
        for pass_answers in answers:
            self.check(pass_answers, tally)
        return setup_s

    def timed(self, seconds: float, tally: Tally) -> Dict[str, float]:
        lat, cold, rewarm, ok, cpus = [], [], [], 0, CpuRotation()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not lat:
            cpu = cpus.next()
            answers, counts = self.one_pass()
            cycles = counts["cycles"]
            lat += [(cpu, c + r) for c, r in cycles]
            cold.append((cpu, sum(c for c, _ in cycles)))
            rewarm.append((cpu, sum(r for _, r in cycles)))
            ok += sum(self.check(answers, tally))
        cpus.restore()
        self.extra = {"compile_s": per_cpu(cold, 50),
                      "rewarm_s": per_cpu(rewarm, 50)}
        return _latency_metrics(lat, ok, time.perf_counter() - start)

    # -- traced ---------------------------------------------------------

    def replay_pass(self, spans: Spans,
                    tally: Tally) -> Tuple[int, Dict[str, float]]:
        """The cold path one public call at a time, then the rewarm.

        Returns the pass's root span and the per-stage pipeline wall
        times the compiler's own trace reports, summed over matrices.
        """
        registry = PlanRegistry(seed=self.seed)
        stages = dict.fromkeys(PIPELINE_STAGES, 0.0)
        root = spans.open("pass")
        for name, coo, x in self.matrices:
            spans.call("coo_digest", matrix_digest, coo, parent=root)
            # The compiler is built inside the span, as register() does.
            prog = spans.call("compile",
                              lambda: SpasmCompiler().compile(coo),
                              parent=root)
            spasm = prog.spasm
            spans.call("plan_build", spasm.plan, parent=root)
            guard = spans.call("pin", ExecutionGuard, spasm,
                               config=SERVE_GUARD, seed=self.seed,
                               parent=root)
            y = spans.call("first_call", guard.spmv, x, parent=root)
            tally.check(_same(y, self.refs[name]),
                        f"replay {name}: first answer differs")
            for stage in PIPELINE_STAGES:
                stages[stage] += prog.trace.stage_ms(stage)
            # A cold entry holding the stream; evicting drops the plan
            # the replay built, so the acquire rebuilds it.
            registry.register(name, spasm=spasm, warm=False)
            rewarm = spans.open("rewarm", root)
            registry.evict(name)
            lease = registry.acquire(name)
            y = lease.guard.spmv(x)
            registry.release(lease)
            spans.close(rewarm)
            tally.check(_same(y, self.refs[name]),
                        f"rewarm {name}: answer differs")
        spans.close(root)
        return root, stages

    def ledger(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Registry passes alternating with replayed passes."""
        plain, traced, cold, counters = [], [], [], []
        parts: Dict[str, list] = {}
        steps = ("coo_digest", "compile", "plan_build", "pin", "first_call")
        cpus = CpuRotation()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not traced:
            cpu = cpus.next()
            t0 = time.perf_counter()
            answers, counts = self.one_pass()
            plain.append((cpu, (time.perf_counter() - t0) * 1e3))
            self.check(answers, tally)
            counters.append((counts["warms"], counts["evictions"]))
            spans = Spans()
            root, stages = self.replay_pass(spans, tally)
            traced.append((cpu, spans.ms(root)))
            cold.append((cpu, sum(spans.children_ms(root, s)
                                  for s in steps)))
            for name in steps + ("rewarm",):
                parts.setdefault(name, []).append(
                    (cpu, spans.children_ms(root, name)))
            for stage, ms in stages.items():
                parts.setdefault(f"pipeline.{stage}", []).append((cpu, ms))
        cpus.restore()
        # Counts must repeat exactly from pass to pass.
        tally.check(len(set(counters)) == 1,
                    f"registry counters vary: {sorted(set(counters))}")
        replay_frac = ((per_cpu(cold, 50) + per_cpu(parts["rewarm"], 50))
                       / per_cpu(plain, 50))
        tally.check(abs(replay_frac - 1.0) <= 0.10,
                    f"replayed steps cover {replay_frac:.3f} of a pass")
        metrics = {
            f"pipeline.{s}_ms": per_cpu(parts[f"pipeline.{s}"], 50)
            for s in PIPELINE_STAGES
        }
        metrics.update({
            "registry.coo_digest_ms": per_cpu(parts["coo_digest"], 50),
            "exec.plan_build_ms": per_cpu(parts["plan_build"], 50),
            "guard.pin_ms": per_cpu(parts["pin"], 50),
            "guard.first_call_ms": per_cpu(parts["first_call"], 50),
            "registry.rewarm_ms": per_cpu(parts["rewarm"], 50),
            "registry.warms": float(counters[0][0]),
            "registry.evictions": float(counters[0][1]),
            "compile.replay_frac": replay_frac,
        })
        self.overhead = per_cpu(traced, 50) / per_cpu(plain, 50) - 1.0
        return metrics


WORKLOADS = {"solve": Solve, "serve": Serve, "compile": Compile}
