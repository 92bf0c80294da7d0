"""Timing helpers shared by the workloads: tallies, spans, blocks."""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Time budget of one interleaved block in the layer ledger.
BLOCK_S = 0.004


class Tally:
    """Operations attempted and failed; a failed check is never fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(what)
        return bool(ok)


class Spans:
    """In-memory spans recorded around the benchmark's calls.

    Each record is ``(name, parent, start_ns, end_ns)``; ``parent`` is
    the index of the enclosing span or ``None``.  Nothing inside the
    program is instrumented: a span brackets one call into a layer.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []

    def open(self, name: str, parent: Optional[int] = None) -> int:
        self.records.append((name, parent, time.perf_counter_ns(), 0))
        return len(self.records) - 1

    def close(self, idx: int) -> None:
        name, parent, start, _ = self.records[idx]
        self.records[idx] = (name, parent, start, time.perf_counter_ns())

    def call(self, name: str, fn: Callable, *args,
             parent: Optional[int] = None, **kwargs):
        """Run ``fn`` inside one span and return its result."""
        idx = self.open(name, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def ms(self, idx: int) -> float:
        _, _, start, end = self.records[idx]
        return (end - start) / 1e6

    def children_ms(self, idx: int, name: Optional[str] = None) -> float:
        """Summed duration of the direct children of span ``idx``."""
        return sum(
            (end - start) / 1e6
            for n, parent, start, end in self.records
            if parent == idx and (name is None or n == name)
        )


class CpuRotation:
    """Moves the calling thread to each allowed CPU in turn.

    On a small VM the vCPUs can run at different speeds for minutes at
    a time (one sharing its core with a busy neighbour), and a
    single-threaded process stays where it lands.  Rotating the thread
    per operation gives every run the same share of each CPU, and
    :func:`per_cpu` takes a statistic per CPU before averaging, so
    which CPU a run started on no longer moves its result.
    """

    def __init__(self) -> None:
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [None])
        self.turn = 0

    def next(self):
        """Move to the next CPU; returns its id (``None`` if unpinnable)."""
        cpu = self.cpus[self.turn % len(self.cpus)]
        self.turn += 1
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        return cpu

    def restore(self) -> None:
        if self.cpus[0] is not None:
            os.sched_setaffinity(0, set(self.cpus))


def warm_pool() -> None:
    """Start every thread of the program's shared executor, unpinned.

    ``ThreadPoolExecutor`` starts its threads lazily, and a thread keeps
    the CPU mask of the thread that started it.  Plan builds submit
    work to the shared pool, so a pool thread first started while
    :class:`CpuRotation` pins the caller would stay on one CPU for the
    rest of the process.  Call this before any rotation: ``width``
    tasks that wait for each other can only finish once the pool runs
    ``width`` threads at once.
    """
    from repro.exec.plan import _pool

    pool = _pool()
    width = pool._max_workers
    barrier = threading.Barrier(width, timeout=30.0)
    for future in [pool.submit(barrier.wait) for _ in range(width)]:
        future.result()


def per_cpu(samples: List[Tuple[object, float]], q: float) -> float:
    """Percentile ``q`` of the values on each CPU, averaged over CPUs."""
    by_cpu: Dict[object, List[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return float(np.mean([pct(v, q) for v in by_cpu.values()]))


def pct(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def per_call_s(fn: Callable, min_s: float = 0.02) -> float:
    """Rough per-call time of ``fn`` (for sizing blocks)."""
    fn()
    n, t0 = 0, time.perf_counter()
    while True:
        fn()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return dt / n


def block_calls(seconds_per_call: float, block_s: float,
                multiple: int = 1) -> int:
    """Calls per timed block: at least ``multiple``, rounded up to it."""
    calls = max(1, math.ceil(block_s / max(seconds_per_call, 1e-9)))
    return multiple * math.ceil(calls / multiple)


def interleave(fns: Dict[str, Callable], calls: int,
               rounds: int) -> Dict[str, List[float]]:
    """Per-call microseconds of each callable, one value per block.

    Every round times one block of ``calls`` calls of each callable,
    rotating the order between rounds, so drift of the host's speed
    lands on every layer alike instead of on whichever ran last.
    """
    names = list(fns)
    out: Dict[str, List[float]] = {name: [] for name in names}
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            fn = fns[name]
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            out[name].append((time.perf_counter_ns() - t0) / calls / 1e3)
    return out


def timed_blocks(fns: Dict[str, Callable], seconds: float, pace: str,
                 multiple: int = 1) -> Dict[str, List[float]]:
    """:func:`interleave` sized to fill about ``seconds``.

    A block holds as many calls as make ``fns[pace]`` last
    ``BLOCK_S`` (rounded up to ``multiple``); at least five rounds run.
    """
    calls = block_calls(per_call_s(fns[pace]), BLOCK_S, multiple)
    round_s = calls * sum(per_call_s(fn, 0.005) for fn in fns.values())
    rounds = max(5, int(seconds / max(round_s, 1e-6)))
    return interleave(fns, calls, rounds)


def med(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def paired_diff(a: List[float], b: List[float]) -> float:
    """Median over rounds of the per-round difference ``a - b``."""
    return med(np.asarray(a) - np.asarray(b))
