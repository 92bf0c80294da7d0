"""Matrix-specific compiled execution plans for SPASM SpMV/SpMM.

An :class:`ExecutionPlan` is the software analogue of AlphaSparse's
matrix-specific kernel artifact: everything about executing ``y = A @ x``
that depends only on the *matrix* is computed once at build time and
stored in the form the kernel reads, so the per-call work is the
minimum the memory system allows.

Build time (once per matrix)
    * drop padding slots (``value == 0`` contributes nothing), then
      decode ``(row, col)`` coordinates for the kept slots only,
    * stable-sort the stream by output row into CSR: ``cols``,
      ``vals`` and the dense row pointer ``indptr``,
    * store the indices in the narrowest dtype that can address them
      (int32 whenever shape and slot count fit, else int64) with
      float64 values.

Call time (every SpMV)
    * dispatch each shard to the one kernel, scipy's compiled CSR
      matvec (:mod:`repro.exec.backends`), over the three plan arrays
      as stored.  It accumulates each output row *sequentially*
      left-to-right, starting from ``y``, so every index width and
      shard grid (and the ``spmv_naive`` oracle) produces
      bitwise-identical float64 output.

This module holds **no kernel math at all** (machine-enforced by the
``exec.plan-kernel`` self-lint): only the plan data model — digests,
checksums, validation — and the dispatch layer around the
kernel (shard grids, the shared pool, the fault hook).

Sharding splits the rows into contiguous ranges of roughly equal slot
count; shards write disjoint rows, and each row is reduced by the same
sequential sum regardless of the shard grid, so ``spmv(x, jobs=N)`` is
bitwise identical for every ``N``.  With ``jobs=None`` a
slots-per-worker heuristic decides whether threads can pay for
themselves at all.  See ``docs/EXEC.md`` for the full layout and
semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import backends as kernel
from repro.exec.policy import check_layout, plan_checksum, plan_findings

#: A shard below this many slots is not worth a thread dispatch; small
#: plans collapse to the serial path no matter what ``jobs`` says.
MIN_SHARD_SLOTS = 16384

#: Slots per worker the ``jobs=None`` auto heuristic demands before it
#: engages threads at all; below the threshold auto mode stays serial
#: (forced ``jobs=N`` still shards, for tests and fault campaigns).
#: Not calibrated for the csr kernel: it was set for the retired numpy
#: gather kernel, and on csr ``jobs=2`` already measured faster from
#: about 1.2M slots (1.25M slots: 3.94 -> 3.02 ms; 2.50M: 7.04 ->
#: 5.21 ms; bitwise identical) while losing at 0.67M (1.74 -> 1.90 ms).
AUTO_SHARD_SLOTS = 4 << 20

#: Upper bound on ``slots x vectors`` multiply-adds in one SpMM vector
#: block (8M), so each block streams the plan arrays once.
SPMM_BLOCK_ELEMS = 1 << 23

#: How many times larger than one measured pool dispatch a shard's
#: estimated kernel time must be before the auto heuristic adds a
#: worker.  BENCH_exec.json shows a mis-sized shard grid losing 3.7x
#: to the serial path; the margin keeps the dispatch tax a rounding
#: error when threads do engage.
SHARD_OVERHEAD_MARGIN = 8.0

#: Rough serial kernel throughput (seconds per slot) used to estimate
#: a shard's kernel time against the dispatch overhead.  Calibrated
#: from the csr kernel in BENCH_exec.json (~0.07 ms / 45k slots); it
#: only needs to be right to an order of magnitude — the margin above
#: absorbs the rest.
EST_SECONDS_PER_SLOT = 2e-9

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()

#: Measured round-trip of one no-op pool dispatch (seconds); ``None``
#: until first measured.  Tests may overwrite it to pin the auto-shard
#: clamp's input.
_DISPATCH_OVERHEAD: Optional[float] = None

#: Fault-injection hook consulted at the start of every shard dispatch
#: (``hook(lo, hi)``); ``None`` on the clean path.  Installed by
#: :func:`repro.resilience.faults.worker_fault` to kill/stall/delay
#: shard workers deterministically — a single global read per shard,
#: free when unset.
_SHARD_HOOK: Optional[Callable[[int, int], None]] = None


def set_shard_fault_hook(
    hook: Optional[Callable[[int, int], None]],
) -> Optional[Callable[[int, int], None]]:
    """Install (or clear) the shard fault hook; returns the previous."""
    global _SHARD_HOOK
    previous = _SHARD_HOOK
    _SHARD_HOOK = hook
    return previous


def _join_shards(futures: Sequence["Future[None]"]) -> None:
    """Collect shard futures, containing worker failures.

    On the first worker exception (or a ``KeyboardInterrupt`` landing
    mid-wait) every not-yet-started shard is cancelled and every
    running one is drained, so no orphaned shard keeps writing into the
    output buffer after the call unwinds; the original exception is
    then re-raised unchanged.
    """
    try:
        for future in futures:
            future.result()
    except BaseException:
        for future in futures:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                try:
                    future.result()
                except BaseException:
                    pass  # secondary failures: the first one wins
        raise


def _pool() -> ThreadPoolExecutor:
    """The single shared executor for plan shards.

    One pool for the whole process — created lazily, reused across
    every call and every plan, bounded by the core count — so repeated
    sharded calls never accumulate threads.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(4, min(32, os.cpu_count() or 1)),
                thread_name_prefix="spasm-exec",
            )
        return _POOL


def dispatch_overhead_s(refresh: bool = False) -> float:
    """Measured cost of one shard dispatch on the shared pool.

    Times a handful of no-op submit/result round-trips and keeps the
    median — a per-process constant the auto-shard heuristic uses to
    clamp its worker count (a shard whose kernel time cannot dominate
    this figure is not worth a thread).  Measured lazily once; pass
    ``refresh=True`` to re-measure.
    """
    global _DISPATCH_OVERHEAD
    if _DISPATCH_OVERHEAD is None or refresh:
        pool = _pool()
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            pool.submit(_noop_dispatch).result()
            samples.append(time.perf_counter() - t0)
        _DISPATCH_OVERHEAD = float(sorted(samples)[len(samples) // 2])
    return _DISPATCH_OVERHEAD


def _noop_dispatch() -> None:
    """The empty task :func:`dispatch_overhead_s` times."""
    return None


def stream_digest(spasm: Any) -> str:
    """Content digest of an encoded stream (the plan's label).

    Covers everything the plan depends on: logical shape, pattern size,
    tile size, the portfolio's template masks, the tile directory and
    the full position/value payload.  Two matrices with equal digests
    build identical plans; mutating any stored array re-keys the plan.
    """
    h = hashlib.sha256()
    h.update(
        repr(
            (
                tuple(spasm.shape),
                int(spasm.k),
                int(spasm.tile_size),
                tuple(int(m) for m in spasm.portfolio.masks),
            )
        ).encode()
    )
    for arr in (
        spasm.tile_rows,
        spasm.tile_cols,
        spasm.tile_ptr,
        spasm.words,
        spasm.values,
    ):
        # Buffer-protocol hashing: identical digest to tobytes(),
        # minus a full copy of the payload per array; dtype-preserving
        # by design (the digest covers the stored layout).
        h.update(np.ascontiguousarray(arr).data)  # lint: allow(exec.implicit-dtype)
    return h.hexdigest()


def _stream_snapshot(spasm: Any) -> Any:
    """A copy of the stream arrays :func:`stream_digest` hashes.

    Returns a :class:`~repro.core.format.SpasmMatrix` owning fresh
    copies of the tile directory and the position/value payload; the
    scalars and the frozen ``Portfolio`` are shared.  Whoever hashes
    the copy, and builds from it, labels exactly the bytes it read:
    an in-place mutation of the live arrays after the copy can neither
    re-key a stale plan nor land in a plan labeled pristine.  The
    sequential memcpy is several times cheaper than the hash itself.
    """
    return dataclasses.replace(spasm, **{
        name: np.array(getattr(spasm, name)) for name in (
            "tile_rows", "tile_cols", "tile_ptr", "words", "values",
        )
    })


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A matrix compiled to the CSR arrays the kernel reads.

    Attributes
    ----------
    shape:
        Logical matrix shape ``(nrows, ncols)``.
    cols:
        Column index of every non-padding slot, stream order stably
        sorted by output row (the gather indices into ``x``); int32
        whenever the matrix and slot count fit, else int64.
    vals:
        Matching slot values (float64).
    indptr:
        The dense CSR row pointer (``nrows + 1`` entries, same dtype
        as ``cols``): row ``r`` owns slots
        ``[indptr[r], indptr[r + 1])``, ``indptr[0] == 0`` and
        ``indptr[-1] == n_slots``.
    digest:
        :func:`stream_digest` of the source stream; the invalidation
        token of lazily cached plans.
    source_nnz:
        Non-zero count of the source matrix (throughput accounting).
    checksum:
        :func:`plan_checksum` of the executable arrays at build time;
        :meth:`validate` recomputes and compares it to detect any
        later corruption before the arrays are dispatched.
    build_ms:
        Wall-clock milliseconds the slot decode and finalize took
        (not the snapshot or the hash); informational only — excluded
        from equality and the checksum.
    """

    shape: Tuple[int, int]
    cols: np.ndarray
    vals: np.ndarray
    indptr: np.ndarray
    digest: str = dataclasses.field(repr=False)
    source_nnz: int
    checksum: str = ""
    build_ms: float = dataclasses.field(default=0.0, compare=False)
    #: The auto-jobs pin (:meth:`override_auto_jobs`): runtime state,
    #: never checksummed.
    _scratch: Dict[Any, Any] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, spasm: Any,
              index: Optional[str] = None) -> "ExecutionPlan":
        """Compile a plan for a :class:`~repro.core.format.SpasmMatrix`.

        ``index`` forces an index dtype (``"int32"``/``"int64"``); by
        default indices auto-narrow.
        """
        # Copy, then hash and compile the copy: the label is the digest
        # of exactly the bytes the plan was built from, so a concurrent
        # in-place mutation of the live stream (a fault striking a
        # serving stream) can never label a plan of other content.
        # Callers compare ``plan.digest`` with the live stream to see
        # such a mutation.
        snapshot = _stream_snapshot(spasm)
        return cls._compile(snapshot, stream_digest(snapshot), index=index)

    @classmethod
    def from_slots(cls, shape: Tuple[int, int], rows: np.ndarray,
                   cols: np.ndarray, vals: np.ndarray,
                   digest: str, source_nnz: int,
                   index: Optional[str] = None,
                   started: Optional[float] = None,
                   compacted: bool = False) -> "ExecutionPlan":
        """Finalize a plan from flat per-slot coordinates.

        ``rows``/``cols``/``vals`` are equal-length arrays in stream
        order, padding slots (``vals == 0``) included unless
        ``compacted``; :meth:`_compile` feeds it the stream's decoded
        non-padding slots.  ``started`` back-dates :attr:`build_ms` to
        include the caller's coordinate work.  ``compacted=True``
        promises the caller already dropped every padding slot
        (``vals`` holds no zeros, in stream order) and skips the keep
        scan; the result is bitwise identical either way because the
        keep mask uses the same ``!= 0`` criterion and preserves stream
        order.
        """
        t0 = time.perf_counter() if started is None else started
        shape = (int(shape[0]), int(shape[1]))
        # Index dtype selection happens below via check_layout;
        # forcing one here would copy the caller's arrays.
        rows = np.asarray(rows).reshape(-1)  # lint: allow(exec.implicit-dtype)
        cols = np.asarray(cols).reshape(-1)  # lint: allow(exec.implicit-dtype)
        vals = np.asarray(vals, dtype=np.float64).reshape(-1)
        if compacted:
            kept_rows, kept_cols, kept_vals = rows, cols, vals
        else:
            keep = np.flatnonzero(vals != 0.0)
            kept_rows = rows[keep]
            kept_cols = cols[keep]
            kept_vals = vals[keep]
        n_slots = int(kept_rows.size)

        index_dt = check_layout(index, shape, n_slots)

        # The row sort is coo_tocsr's stable counting sort; it
        # declines a row outside the matrix (a corrupted stream being
        # recompiled), which the portable stable argsort then places
        # outside every row's range, so validate() refuses the plan
        # and the kernel never reads it.  Both sorts give bitwise
        # identical plans (asserted by the kernel-parity tests).
        sorted_rows = kernel.counting_sort_rows(
            shape, kept_rows, kept_cols, kept_vals, index_dt)
        if sorted_rows is None:
            sorted_rows = kernel.stable_sort_rows(
                shape, kept_rows, kept_cols, kept_vals, index_dt)
        out_cols, out_vals, indptr = sorted_rows
        return cls(
            shape=shape,
            cols=out_cols,
            vals=out_vals,
            indptr=indptr,
            digest=digest,
            source_nnz=int(source_nnz),
            checksum=plan_checksum(out_cols, out_vals, indptr, shape),
            build_ms=(time.perf_counter() - t0) * 1e3,
        )

    @classmethod
    def _compile(cls, spasm: Any, digest: str,
                 index: Optional[str] = None) -> "ExecutionPlan":
        """The standalone build: decode the non-padding slots of the
        stream, then finalize."""
        started = time.perf_counter()
        rows, cols, vals = spasm._expand_kept()
        return cls.from_slots(
            spasm.shape, rows, cols, vals,
            digest=digest,
            source_nnz=int(spasm.source_nnz),
            index=index,
            started=started,
            compacted=True,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Non-padding slots the plan streams per SpMV."""
        return int(self.vals.size)

    @property
    def n_segments(self) -> int:
        """Rows the kernel walks (``nrows``): the ``hi`` of a
        whole-plan kernel call, which perfbench's bare-kernel timing
        passes as ``backends.spmv(plan, indptr, x, out, 0,
        plan.n_segments)``."""
        return int(self.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident size of the plan arrays."""
        return int(self.cols.nbytes + self.vals.nbytes
                   + self.indptr.nbytes)

    def describe(self) -> str:
        """One-line summary for traces and CLI output."""
        return (
            f"plan[{self.shape[0]}x{self.shape[1]}]: "
            f"{self.n_slots} slots over {self.shape[0]} rows, "
            f"{self.cols.dtype.name}/{self.vals.dtype.name} layout, "
            f"{self.nbytes / 1e6:.1f} MB"
        )

    def validate(self) -> List[str]:
        """Integrity check of the executable arrays; problems found.

        The messages of :func:`repro.exec.policy.plan_findings`: the
        plan contract's index-width, coverage, values and checksum
        invariants.  An empty list means the plan is safe to dispatch.
        Used by the resilience guard before execution.
        """
        return [finding.message for finding in plan_findings(self)]

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (for Jacobi-style preconditioning)."""
        return kernel.plan_diagonal(self)

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------

    def _auto_jobs(self) -> int:
        """Worker count the slots-per-worker heuristic picks.

        A runtime pin (:meth:`override_auto_jobs`) wins outright;
        otherwise the static slots-per-worker threshold proposes a
        count which is then clamped by the *measured* per-dispatch
        overhead — a shard only earns a thread when its estimated
        kernel time dominates one pool round-trip by
        :data:`SHARD_OVERHEAD_MARGIN`.
        """
        pinned = self._scratch.get("pinned_jobs")
        if pinned is not None:
            return max(1, min(int(pinned), os.cpu_count() or 1))
        jobs = self.n_slots // AUTO_SHARD_SLOTS
        if jobs < 2:
            return 1
        jobs = min(jobs, os.cpu_count() or 1)
        overhead = dispatch_overhead_s()
        while jobs > 1:
            shard_s = (self.n_slots / jobs) * EST_SECONDS_PER_SLOT
            if shard_s >= SHARD_OVERHEAD_MARGIN * overhead:
                break
            jobs -= 1
        return jobs

    def override_auto_jobs(self, jobs: Optional[int]) -> None:
        """Pin the ``jobs=None`` auto heuristic to a fixed worker count.

        The pinned count overrides the static slots-per-worker
        threshold for every subsequent auto-mode dispatch — how the
        chaos campaign drives callers that pass no ``jobs`` onto the
        shard path.  ``None`` clears the override.  Explicit ``jobs=N``
        arguments still win, and every count remains bitwise
        identical.  Stored in the scratch dict, outside equality and
        the checksum.
        """
        if jobs is None:
            self._scratch.pop("pinned_jobs", None)
            return
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._scratch["pinned_jobs"] = int(jobs)

    def shard_bounds(self, jobs: int) -> List[Tuple[int, int]]:
        """Contiguous row ranges of roughly equal slot count.

        The grid is a pure function of the plan and ``jobs``: cuts
        fall at the rows where ``indptr`` reaches each equal share of
        the slots.  Tiny plans collapse to one shard so thread
        dispatch never costs more than it saves.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        nrows = self.shape[0]
        if jobs == 1 or nrows < 2 or self.n_slots < 2 * MIN_SHARD_SLOTS:
            return [(0, nrows)]
        targets = (
            self.n_slots * np.arange(1, jobs, dtype=np.float64) / jobs
        )
        cuts = np.searchsorted(self.indptr, targets)
        bounds = np.unique(np.concatenate(([0], cuts, [nrows])))
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(bounds.size - 1)
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    @staticmethod
    def _output(y: Optional[np.ndarray], shape: Tuple[int, ...],
                name: str) -> np.ndarray:
        """The kernel's output buffer: zeros, or a C-contiguous float64
        copy of ``y`` that the kernel accumulates each row into."""
        if y is None:
            return np.zeros(shape, dtype=np.float64)
        out = np.array(y, dtype=np.float64, order="C")
        if out.shape != shape:
            raise ValueError(
                f"{name} of shape {out.shape} incompatible with {shape}"
            )
        return out

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None,
             jobs: Optional[int] = None) -> np.ndarray:
        """Execute ``y = A @ x + y`` through the compiled plan.

        The kernel starts each row's sum from ``y[row]`` and adds the
        row's terms left to right, the order of ``spmv_naive(x, y)``.
        ``jobs=None`` lets the slots-per-worker heuristic decide
        (serial below ~8M slots); ``jobs=N`` forces N row-range shards
        on the shared thread pool.  Every choice is bitwise identical:
        shards write disjoint rows and each row accumulates in the
        same order.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"x of shape {x.shape} incompatible with {self.shape}"
            )
        out = self._output(y, (self.shape[0],), "y")
        jobs_eff = self._auto_jobs() if jobs is None else int(jobs)
        shards = self.shard_bounds(jobs_eff)
        if len(shards) == 1:
            self._run_shard(out, x, 0, self.shape[0])
        else:
            pool = _pool()
            _join_shards([
                pool.submit(self._run_shard, out, x, lo, hi)
                for lo, hi in shards
            ])
        return out

    def _run_shard(self, out: np.ndarray, x: np.ndarray,
                   lo: int, hi: int) -> None:
        """Dispatch rows ``[lo, hi)`` to the kernel's spmv.

        The shard envelope: the fault hook fires first, empty shards
        return before the kernel runs, and the kernel sees only
        ``lo < hi``.
        """
        hook = _SHARD_HOOK
        if hook is not None:
            hook(lo, hi)
        if lo >= hi:
            return
        kernel.spmv(self, self.indptr, x, out, lo, hi)

    def spmm(self, x_block: np.ndarray,
             y_block: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             block_size: Optional[int] = None) -> np.ndarray:
        """Execute ``Y = A @ X + Y`` reusing the plan across vectors.

        Vectors are processed in blocks (bounding each block's
        ``slots x vectors`` work at roughly ``SPMM_BLOCK_ELEMS``);
        within each block the rows are sharded exactly like
        :meth:`spmv`, and every column accumulates from ``Y`` in the
        same order as a standalone :meth:`spmv` of that vector, so the
        result is independent of ``jobs`` and bitwise column-equal to
        the unbatched engine and to ``spmm_naive``.
        """
        x_block = np.ascontiguousarray(x_block, dtype=np.float64)
        if x_block.ndim != 2 or x_block.shape[0] != self.shape[1]:
            raise ValueError(
                f"X of shape {x_block.shape} incompatible with "
                f"{self.shape}"
            )
        out = self._output(y_block, (self.shape[0], x_block.shape[1]),
                           "Y")
        self._blocked_dispatch(out, x_block, jobs, block_size)
        return out

    def _blocked_dispatch(self, out: np.ndarray, x_block: np.ndarray,
                          jobs: Optional[int],
                          block_size: Optional[int]) -> None:
        """Shared block/shard driver for the multi-vector entry points.

        Slices the ``(ncols, n_vectors)`` input into contiguous vector
        blocks, shards each block on the row grid, and routes every
        (block, shard) pair to the kernel's ``spmm`` via the
        :meth:`_reduce_block` envelope (fault hook, empty-shard skip),
        accumulating into ``out``.
        """
        n_vectors = x_block.shape[1]
        if block_size is None:
            block_size = max(
                1, SPMM_BLOCK_ELEMS // max(self.n_slots, 1)
            )
        block_size = max(1, min(int(block_size), max(n_vectors, 1)))
        jobs_eff = self._auto_jobs() if jobs is None else int(jobs)
        shards = self.shard_bounds(jobs_eff)
        for j0 in range(0, n_vectors, block_size):
            j1 = min(j0 + block_size, n_vectors)
            # Contiguity only: x_block's dtype was pinned at entry.
            xb = np.ascontiguousarray(x_block[:, j0:j1])  # lint: allow(exec.implicit-dtype)
            if len(shards) == 1:
                self._reduce_block(out, xb, j0, j1, 0, self.shape[0])
            else:
                pool = _pool()
                _join_shards([
                    pool.submit(self._reduce_block, out, xb, j0, j1,
                                lo, hi)
                    for lo, hi in shards
                ])

    def _reduce_block(self, out: np.ndarray, xb: np.ndarray, j0: int,
                      j1: int, lo: int, hi: int) -> None:
        """Dispatch one (vector block, shard) pair to the kernel.

        ``xb`` is the contiguous ``(ncols, j1 - j0)`` slice of the
        input block.  Same envelope as :meth:`_run_shard`: fault hook
        first, empty shards never reach the kernel.
        """
        hook = _SHARD_HOOK
        if hook is not None:
            hook(lo, hi)
        if lo >= hi:
            return
        kernel.spmm(self, self.indptr, xb, out, j0, j1, lo, hi)

    def spmv_batch(self, xs: np.ndarray,
                   jobs: Optional[int] = None,
                   block_size: Optional[int] = None) -> np.ndarray:
        """Batched SpMV: ``(n_queries, ncols)`` → ``(n_queries, nrows)``.

        Coalesces the queries into the blocked multi-vector kernel so
        the plan arrays are streamed once per vector block instead of
        once per query; row ``i`` of the result is bitwise identical to
        ``spmv(xs[i])``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.shape[1]:
            raise ValueError(
                f"query batch of shape {xs.shape} incompatible with "
                f"{self.shape}"
            )
        if xs.shape[0] == 0:
            return np.zeros((0, self.shape[0]), dtype=np.float64)
        yt = np.zeros((self.shape[0], xs.shape[0]), dtype=np.float64)
        # Contiguity only on both transposes: the dispatch pins the
        # value dtype itself and yt already carries the output dtype.
        self._blocked_dispatch(
            yt,
            np.ascontiguousarray(xs.T),  # lint: allow(exec.implicit-dtype)
            jobs, block_size,
        )
        return np.ascontiguousarray(yt.T)  # lint: allow(exec.implicit-dtype)
