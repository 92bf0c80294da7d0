"""Matrix-specific compiled execution plans for SPASM SpMV/SpMM.

An :class:`ExecutionPlan` is the software analogue of AlphaSparse's
matrix-specific kernel artifact: everything about executing ``y = A @ x``
that depends only on the *matrix* is computed once at build time, so the
per-call work is the minimum the memory system allows.

Build time (once per matrix)
    * expand every stored slot to ``(row, col, value)`` coordinates —
      or, on the fused path, take the coordinates straight from the
      encoder's intermediates (:func:`repro.core.format.encode_spasm`
      with ``build_plan=True``) without re-expanding the stream,
    * drop padding slots (``value == 0`` contributes nothing),
    * stable-sort the stream by output row,
    * record the segment boundary of each non-empty output row,
    * store the arrays in the narrowest layout that can address them
      (int32 indices whenever shape and slot count fit; float64 values
      unless ``precision="float32"`` is requested explicitly).

Call time (every SpMV)
    * resolve a kernel backend (:mod:`repro.exec.backends`):
      ``backend=None`` negotiates the highest-priority registered
      backend whose declared capabilities cover the plan's layout —
      compact int32/float64 plans take scipy's compiled CSR kernels
      (``csr``), everything else the portable take/bincount engine
      (``gather``), with the optional ``numba`` JIT in between when
      installed,
    * dispatch each shard through that backend's segment-reduce
      kernel.  Every backend accumulates each output-row segment
      *sequentially* left-to-right, so every engine/dtype combination
      (and the ``spmv_naive`` oracle) produces bitwise-identical
      float64 output.

This module holds **no kernel math at all** (machine-enforced by the
``exec.plan-kernel`` self-lint): only the plan data model — digests,
checksums, caching, validation — and the backend-independent dispatch
layer (shard grids, the shared pool, the fault hook).

Sharding splits the *segments* (output rows) into contiguous blocks of
roughly equal slot count; shards write disjoint rows, and each segment
is reduced by the same sequential sum regardless of the shard grid, so
``spmv(x, jobs=N)`` is bitwise identical for every ``N``.  With
``jobs=None`` a slots-per-worker heuristic decides whether threads can
pay for themselves at all (they rarely can below several million slots
— the kernels are GIL-bound).  See ``docs/EXEC.md`` for the full
layout and semantics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exec.backends.base import ExecutionBackend
from repro.exec.backends.csr import counting_sort_rows
from repro.exec.backends.registry import (
    AUTO,
    registry_generation,
    resolve_backend,
)
from repro.exec.policy import check_layout, plan_checksum, plan_findings

#: Stage name used for persisted plan artifacts (``plan-<key>.npz``
#: entries in a :class:`repro.pipeline.cache.ArtifactCache`).
PLAN_STAGE = "plan"

#: A shard below this many slots is not worth a thread dispatch; small
#: plans collapse to the serial path no matter what ``jobs`` says.
MIN_SHARD_SLOTS = 16384

#: Slots per worker the ``jobs=None`` auto heuristic demands before it
#: engages threads at all.  The gather/reduce kernels hold the GIL for
#: most of their runtime, so a second thread only pays for itself on
#: very large plans; below the threshold auto mode stays serial (forced
#: ``jobs=N`` still shards, for tests and fault campaigns).
AUTO_SHARD_SLOTS = 4 << 20

#: Upper bound on ``slots x vectors`` elements materialized by one SpMM
#: gather block (8M float64 elements = 64 MiB scratch).
SPMM_BLOCK_ELEMS = 1 << 23

#: How many times larger than one measured pool dispatch a shard's
#: estimated kernel time must be before the auto heuristic adds a
#: worker.  BENCH_exec.json shows a mis-sized shard grid losing 3.7x
#: to the serial path; the margin keeps the dispatch tax a rounding
#: error when threads do engage.
SHARD_OVERHEAD_MARGIN = 8.0

#: Rough serial kernel throughput (seconds per slot) used to estimate
#: a shard's kernel time against the dispatch overhead.  Calibrated
#: from the csr backend in BENCH_exec.json (~0.07 ms / 45k slots); it
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
    """The single shared executor for shards and background hashing.

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
    """Content digest of an encoded stream (plan cache key).

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


class _DeferredDigest:
    """A digest that computes on first ``result()`` call.

    The single-core stand-in for a pool future: submitting the hash
    eagerly on one CPU just steals cycles from the build it is supposed
    to overlap with, so the hash waits until someone actually needs the
    identity (the :attr:`ExecutionPlan.digest` property memoizes the
    resolution, so it runs at most once per plan).
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: Any) -> None:
        self._snapshot = snapshot

    def result(self) -> str:
        return stream_digest(self._snapshot)


def digest_async(spasm: Any) -> Any:
    """Take :func:`stream_digest` off the build's critical path.

    The hash runs over a build-time snapshot of the stream
    (:func:`_stream_snapshot`), so the plan's identity is immune to
    later in-place mutation of the live arrays no matter when the hash
    lands.  With more than one core it is submitted to the shared pool
    — ``hashlib`` releases the GIL while hashing large buffers, so it
    genuinely overlaps plan construction.  On a single core it is
    deferred instead (:class:`_DeferredDigest`): concurrency would
    only interleave with the build, so the hash runs lazily at the
    first digest access.  Either way the returned handle answers
    ``result()`` and is accepted anywhere a digest string is
    (``ExecutionPlan.from_slots``).
    """
    snapshot = _stream_snapshot(spasm)
    if (os.cpu_count() or 1) > 1:
        return _pool().submit(stream_digest, snapshot)
    return _DeferredDigest(snapshot)


def _plan_cache_key(digest: str, index: Optional[str],
                    precision: Optional[str]) -> str:
    """Artifact key for one (stream, layout) combination.

    The default layout (auto-narrowed indices, float64 values) keeps
    the bare digest key; explicit layout overrides hash the layout into
    the key so differently-typed plans of one stream coexist in the
    cache instead of thrashing a single entry.
    """
    if index is None and precision is None:
        return digest[:40]
    tag = hashlib.sha256(f"{digest}|{index}|{precision}".encode())
    return tag.hexdigest()[:40]


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A compiled gather/segment-reduce schedule for one matrix.

    Attributes
    ----------
    shape:
        Logical matrix shape ``(nrows, ncols)``.
    cols:
        Column index of every non-padding slot, stream order stably
        sorted by output row (the gather indices into ``x``); int32
        whenever the matrix and slot count fit, else int64.
    vals:
        Matching slot values (float64, or float32 behind the explicit
        ``precision=`` opt-in).
    seg_starts:
        Offset into ``cols``/``vals`` where each output-row segment
        begins (``n_segments`` entries, strictly increasing); same
        dtype as ``cols``.
    seg_rows:
        Output row of each segment (strictly increasing, all within
        the matrix — padding never carries values past the edge); same
        dtype as ``cols``.
    digest:
        :func:`stream_digest` of the source stream; the cache key and
        the invalidation token of lazily cached plans.  The fused
        builder hands the field a pending ``Future`` so hashing never
        sits on the build's critical path — the :attr:`digest`
        property resolves (and memoizes) it on first access, which is
        always before the value is needed: cache stores and lazy-plan
        adoption go through the property, while
        ``spmv`` itself never touches it.
    source_nnz:
        Non-zero count of the source matrix (throughput accounting).
    checksum:
        :func:`plan_checksum` of the executable arrays at build time;
        :meth:`validate` recomputes and compares it to detect any
        later corruption before the arrays are dispatched.
    build_ms:
        Wall-clock milliseconds the build took (fused or compiled);
        informational only — excluded from equality and the checksum.
    """

    shape: Tuple[int, int]
    cols: np.ndarray
    vals: np.ndarray
    seg_starts: np.ndarray
    seg_rows: np.ndarray
    _digest: Union[str, "Future[str]"] = dataclasses.field(repr=False)
    source_nnz: int
    checksum: str = ""
    build_ms: float = dataclasses.field(default=0.0, compare=False)
    #: Lazily derived kernel state (per-slot rows, widened gather
    #: indices, the CSR indptr) and the dispatch memo.  Never
    #: persisted, never checksummed, rebuilt from the four executable
    #: arrays on first use.
    _scratch: Dict[Any, Any] = dataclasses.field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def digest(self) -> str:
        """The stream digest, resolving a deferred hash on first use.

        The fused builder leaves the digest computing on the shared
        pool instead of blocking the build on it; whoever needs the
        identity first (cache store, verify, lazy-plan adoption) pays
        the residual wait here, after which the resolved string is
        memoized in place.
        """
        value = self._digest
        if not isinstance(value, str):
            value = value.result()
            object.__setattr__(self, "_digest", value)
        return value

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, spasm: Any, cache: Any = None,
              index: Optional[str] = None,
              precision: Optional[str] = None) -> "ExecutionPlan":
        """Compile a plan for a :class:`~repro.core.format.SpasmMatrix`.

        ``cache`` is an optional
        :class:`~repro.pipeline.cache.ArtifactCache`: the built plan is
        persisted as a ``plan-<key>.npz`` artifact keyed on the stream
        digest (and the layout, when overridden), and a later build of
        an identical stream — in this or any other process — is served
        from disk.  ``index``/``precision`` force a specific array
        layout (``"int32"``/``"int64"``, ``"float32"``/``"float64"``);
        by default indices auto-narrow and values stay float64.
        """
        # Copy, then hash and compile the copy: the label is the digest
        # of exactly the bytes the plan was built from, so a concurrent
        # in-place mutation of the live stream (a fault striking a
        # serving stream) can never label — or persist under the
        # pristine key — a plan of other content.  Callers compare
        # ``plan.digest`` with the live stream to see such a mutation.
        snapshot = _stream_snapshot(spasm)
        digest = stream_digest(snapshot)
        key = _plan_cache_key(digest, index, precision)
        entry = None if cache is None else cache.load(PLAN_STAGE, key)
        if entry is not None:
            try:
                return cls.from_entry(entry, digest, spasm.shape,
                                      index=index, precision=precision)
            except ValueError as exc:
                # Quarantined with the reason: never consulted again.
                cache.quarantine(PLAN_STAGE, key, reason=str(exc))
        plan = cls._compile(snapshot, digest, index=index,
                            precision=precision)
        if cache is not None:
            cache.store(PLAN_STAGE, key, *plan.to_entry())
        return plan

    @classmethod
    def from_slots(cls, shape: Tuple[int, int], rows: np.ndarray,
                   cols: np.ndarray, vals: np.ndarray,
                   digest: Union[str, "Future[str]"], source_nnz: int,
                   index: Optional[str] = None,
                   precision: Optional[str] = None,
                   started: Optional[float] = None,
                   compacted: bool = False) -> "ExecutionPlan":
        """Finalize a plan from flat per-slot coordinates.

        ``rows``/``cols``/``vals`` are equal-length arrays in stream
        order with padding slots still present (``vals == 0``); this is
        the shared tail of both builders — :meth:`_compile` feeds it
        the re-expanded stream, the fused encode path feeds it the
        encoder's own intermediates.  ``digest`` may be a ``Future``
        (left pending — the :attr:`digest` property resolves it on
        first access, so hashing never blocks the build) and
        ``started`` back-dates :attr:`build_ms` to include the
        caller's coordinate work.  ``compacted=True`` promises the
        caller already dropped every padding slot (``vals`` holds no
        zeros, in stream order) and skips the keep scan; the result is
        bitwise identical either way because the keep mask uses the
        same ``!= 0`` criterion and preserves stream order.
        """
        t0 = time.perf_counter() if started is None else started
        shape = (int(shape[0]), int(shape[1]))
        # Index dtype selection happens below via check_layout;
        # forcing one here would copy compact int32 encoder output.
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

        index_dt, value_dt = check_layout(index, precision, shape,
                                          n_slots)

        # The row sort is a stable counting sort when SciPy is around:
        # ``coo_tocsr`` (:func:`repro.exec.backends.csr
        # .counting_sort_rows`) is one O(n_slots + nrows) C pass that
        # emits the permuted cols/vals and the segment pointers
        # directly — it walks the input in order, so ties keep stream
        # order exactly like ``np.argsort(kind="stable")`` and the
        # resulting plan is bitwise identical to the portable path
        # below (asserted by the kernel-parity tests).  The helper
        # declines (returns None) when ineligible — scipy absent,
        # pathologically tall shapes, or out-of-range rows (a
        # corrupted stream being recompiled must reach validate(),
        # not scatter out of bounds) — and the stable argsort runs.
        counted = (
            counting_sort_rows(shape, kept_rows, kept_cols,
                               kept_vals, index_dt)
            if n_slots > 0 else None
        )
        if n_slots == 0:
            out_cols = np.zeros(0, dtype=index_dt)
            out_vals = np.zeros(0, dtype=value_dt)
            seg_starts = np.zeros(0, dtype=index_dt)
            seg_rows = np.zeros(0, dtype=index_dt)
        elif counted is not None:
            out_cols, sorted_vals, seg_starts, seg_rows = counted
            out_vals = np.ascontiguousarray(sorted_vals,
                                            dtype=value_dt)
        else:
            order = np.argsort(kept_rows, kind="stable")
            srows = kept_rows[order]
            out_cols = np.ascontiguousarray(kept_cols[order],
                                            dtype=index_dt)
            out_vals = np.ascontiguousarray(kept_vals[order],
                                            dtype=value_dt)
            bounds = np.flatnonzero(srows[1:] != srows[:-1]) + 1
            starts64 = np.concatenate(
                (np.zeros(1, dtype=np.int64), bounds)
            )
            seg_rows = np.ascontiguousarray(srows[starts64],
                                            dtype=index_dt)
            seg_starts = np.ascontiguousarray(starts64, dtype=index_dt)
        checksum = plan_checksum(out_cols, out_vals, seg_starts,
                                 seg_rows, shape)
        return cls(
            shape=shape,
            cols=out_cols,
            vals=out_vals,
            seg_starts=seg_starts,
            seg_rows=seg_rows,
            _digest=digest,
            source_nnz=int(source_nnz),
            checksum=checksum,
            build_ms=(time.perf_counter() - t0) * 1e3,
        )

    @classmethod
    def _compile(cls, spasm: Any, digest: str,
                 index: Optional[str] = None,
                 precision: Optional[str] = None) -> "ExecutionPlan":
        """The standalone build: re-expand the stream, then finalize."""
        started = time.perf_counter()
        rows, cols, vals = spasm._expand()
        return cls.from_slots(
            spasm.shape, rows, cols, vals,
            digest=digest,
            source_nnz=int(spasm.source_nnz),
            index=index,
            precision=precision,
            started=started,
        )

    def to_entry(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """The persisted form of the plan: ``(arrays, meta)``.

        The one plan-entry codec, shared by the plan cache
        (:meth:`build`) and the pipeline's ``PlanPass``; the inverse
        is :meth:`from_entry`.
        """
        return (
            {
                "cols": self.cols,
                "vals": self.vals,
                "seg_starts": self.seg_starts,
                "seg_rows": self.seg_rows,
            },
            {
                "digest": self.digest,
                "nrows": self.shape[0],
                "ncols": self.shape[1],
                "source_nnz": self.source_nnz,
                "plan_checksum": self.checksum,
            },
        )

    @classmethod
    def from_entry(cls, entry: Any, digest: str, shape: Sequence[int],
                   index: Optional[str] = None,
                   precision: Optional[str] = None,
                   ) -> "ExecutionPlan":
        """Adopt a persisted entry for the stream ``digest``/``shape``.

        Arrays are adopted **as stored** — no dtype conversion, so an
        int32/float32 plan round-trips bit-for-bit and copy-free.  The
        byte payload is already checksummed by
        :class:`~repro.pipeline.cache.ArtifactCache`, but its metadata
        is not, so the entry must carry the plan checksum that binds
        the arrays to the shape.  Raises :class:`ValueError` naming
        the reason when the entry is malformed (a missing field or
        checksum), stale (another stream or shape), laid out other
        than :func:`~repro.exec.policy.check_layout` resolves
        ``index``/``precision`` to, or breaks the plan contract.
        """
        try:
            plan = cls(
                shape=(int(entry.meta["nrows"]), int(entry.meta["ncols"])),
                cols=entry.arrays["cols"],
                vals=entry.arrays["vals"],
                seg_starts=entry.arrays["seg_starts"],
                seg_rows=entry.arrays["seg_rows"],
                _digest=str(entry.meta["digest"]),
                source_nnz=int(entry.meta["source_nnz"]),
                checksum=str(entry.meta["plan_checksum"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed plan entry: {exc!r}") from None
        if not plan.checksum:
            raise ValueError("malformed plan entry: empty plan_checksum")
        if plan.digest != digest:
            raise ValueError("stale plan entry: stream digest mismatch")
        if plan.shape != (int(shape[0]), int(shape[1])):
            raise ValueError("stale plan entry: shape mismatch vs stream")
        want = check_layout(index, precision, plan.shape, plan.n_slots)
        have = (plan.cols.dtype, plan.vals.dtype)
        if have != want:
            raise ValueError(
                f"plan entry layout mismatch: stored {have[0].name}/"
                f"{have[1].name}, build wants {want[0].name}/"
                f"{want[1].name}"
            )
        problems = plan.validate()
        if problems:
            raise ValueError("; ".join(problems))
        return plan

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Non-padding slots the plan streams per SpMV."""
        return int(self.vals.size)

    @property
    def n_segments(self) -> int:
        """Non-empty output rows (segment count)."""
        return int(self.seg_rows.size)

    @property
    def nbytes(self) -> int:
        """Resident size of the plan arrays."""
        return int(
            self.cols.nbytes
            + self.vals.nbytes
            + self.seg_starts.nbytes
            + self.seg_rows.nbytes
        )

    def release_scratch(self) -> None:
        """Drop prepared backend scratch, the dispatch memo and pins.

        The serving layer's plan registry calls this when it evicts a
        plan under memory pressure: backend ``prepare`` state (dense
        row pointers, widened index copies) can rival the plan arrays
        themselves, and a plan about to go cold must not keep it
        resident.  The next dispatch transparently re-prepares.
        """
        self._scratch.clear()

    def describe(self) -> str:
        """One-line summary for traces and CLI output."""
        return (
            f"plan[{self.shape[0]}x{self.shape[1]}]: "
            f"{self.n_slots} slots over {self.n_segments} row segments, "
            f"{self.cols.dtype.name}/{self.vals.dtype.name} layout, "
            f"{self.nbytes / 1e6:.1f} MB"
        )

    def validate(self) -> List[str]:
        """Integrity check of the executable arrays; problems found.

        The messages of :func:`repro.exec.policy.plan_findings`: the
        plan contract's index-width, coverage, values and checksum
        invariants.  An empty list means the plan is safe to dispatch.
        Used by the resilience guard before execution and by the plan
        caches before they serve an entry.
        """
        return [finding.message for finding in plan_findings(self)]

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (for Jacobi-style preconditioning)."""
        from repro.exec.backends.gather import plan_diagonal

        return plan_diagonal(self)

    # ------------------------------------------------------------------
    # backend state (lazy, never persisted)
    # ------------------------------------------------------------------

    def _backend_state(self, engine: ExecutionBackend) -> Any:
        """The engine's prepared scratch for this plan, memoized.

        One :meth:`~repro.exec.backends.base.ExecutionBackend.prepare`
        per (plan, backend) pair — the software analogue of a device
        upload — cached in the plan's non-persisted scratch dict, so
        repeated dispatch through the same backend pays nothing.
        """
        key = f"backend::{engine.name}"
        state = self._scratch.get(key)
        if state is None:
            # setdefault: racing first calls agree on one state object,
            # so a fault flipped into it reaches every later dispatch.
            state = self._scratch.setdefault(key, engine.prepare(self))
        return state

    def _dispatch(self, backend: Union[None, str, ExecutionBackend],
                  op: str) -> Tuple[ExecutionBackend, Any]:
        """The engine ``backend`` resolves to for ``op``, and its state.

        Negotiation sorts the registry and checks capabilities on
        every call, which costs a sizeable share of a small kernel.
        Its answer depends only on this plan's layout and the registry,
        so it is memoized in scratch per (request, op) and re-resolved
        once :func:`~repro.exec.backends.registry.registry_generation`
        moves on (a backend was registered or unregistered) or
        :meth:`release_scratch` cleared it.  The state is the same
        object :meth:`_backend_state` hands out, so fault injection
        through that path lands in what the next dispatch reads.
        """
        if backend == AUTO:
            backend = None
        key = ("dispatch", backend, op)
        generation = registry_generation()
        memo = self._scratch.get(key)
        if memo is not None and memo[0] == generation:
            return memo[1], memo[2]
        engine = resolve_backend(backend, plan=self, op=op)
        state = self._backend_state(engine)
        self._scratch[key] = (generation, engine, state)
        return engine, state

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
        identical.  Stored in the non-persisted scratch dict, so cached
        plan artifacts never bake in a machine-specific count.
        """
        if jobs is None:
            self._scratch.pop("pinned_jobs", None)
            return
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._scratch["pinned_jobs"] = int(jobs)

    def shard_bounds(self, jobs: int) -> List[Tuple[int, int]]:
        """Contiguous segment ranges of roughly equal slot count.

        The grid is a pure function of the plan and ``jobs``; tiny
        plans collapse to one shard so thread dispatch never costs more
        than it saves.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if (
            jobs == 1
            or self.n_segments < 2
            or self.n_slots < 2 * MIN_SHARD_SLOTS
        ):
            return [(0, self.n_segments)]
        targets = (
            self.n_slots * np.arange(1, jobs, dtype=np.float64) / jobs
        )
        cuts = np.searchsorted(self.seg_starts, targets)
        bounds = np.unique(
            np.concatenate(([0], cuts, [self.n_segments]))
        )
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(bounds.size - 1)
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             backend: Union[None, str, ExecutionBackend] = None,
             ) -> np.ndarray:
        """Execute ``y = A @ x + y`` through the compiled plan.

        ``jobs=None`` lets the slots-per-worker heuristic decide
        (serial below ~8M slots); ``jobs=N`` forces N row-block shards
        on the shared thread pool.  ``backend`` names the kernel engine
        (``None``/``"auto"`` negotiates the best capable one).  Every
        choice is bitwise identical: shards write disjoint rows and
        every float64-claiming backend accumulates each segment
        left-to-right in the same order.
        """
        engine, state = self._dispatch(backend, "spmv")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"x of shape {x.shape} incompatible with {self.shape}"
            )
        out = np.zeros(self.shape[0], dtype=np.float64)
        jobs_eff = self._auto_jobs() if jobs is None else int(jobs)
        shards = self.shard_bounds(jobs_eff)
        if len(shards) == 1:
            self._run_shard(engine, state, out, x, 0,
                            self.n_segments)
        else:
            pool = _pool()
            _join_shards([
                pool.submit(
                    self._run_shard, engine, state, out, x, lo, hi
                )
                for lo, hi in shards
            ])
        if y is not None:
            y = np.asarray(y, dtype=np.float64)
            if y.shape != out.shape:
                raise ValueError(
                    f"y of shape {y.shape} incompatible with {self.shape}"
                )
            out += y
        return out

    def _run_shard(self, engine: ExecutionBackend, state: Any,
                   out: np.ndarray, x: np.ndarray, lo: int,
                   hi: int) -> None:
        """Dispatch segments ``[lo, hi)`` to the engine's spmv kernel.

        The backend-independent shard envelope: the fault hook fires
        for every backend, empty shards return before any kernel runs,
        and the engine sees only ``lo < hi``.
        """
        hook = _SHARD_HOOK
        if hook is not None:
            hook(lo, hi)
        if lo >= hi:
            return
        engine.spmv(self, state, x, out, lo, hi)

    def spmm(self, x_block: np.ndarray,
             y_block: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             block_size: Optional[int] = None,
             backend: Union[None, str, ExecutionBackend] = None,
             ) -> np.ndarray:
        """Execute ``Y = A @ X + Y`` reusing the plan across vectors.

        Vectors are processed in blocks (bounding scratch memory at
        roughly ``SPMM_BLOCK_ELEMS`` float64 elements); within each
        block the segment reduction is sharded exactly like
        :meth:`spmv`, and every column accumulates in the same order as
        a standalone :meth:`spmv` of that vector, so the result is
        independent of ``jobs`` and bitwise column-equal to the
        unbatched engine.
        """
        engine, state = self._dispatch(backend, "spmm")
        x_block = np.ascontiguousarray(x_block, dtype=np.float64)
        if x_block.ndim != 2 or x_block.shape[0] != self.shape[1]:
            raise ValueError(
                f"X of shape {x_block.shape} incompatible with "
                f"{self.shape}"
            )
        out = self._blocked_dispatch(
            engine.spmm, state, x_block, jobs, block_size
        )
        if y_block is not None:
            y_block = np.asarray(y_block, dtype=np.float64)
            if y_block.shape != out.shape:
                raise ValueError(
                    f"Y of shape {y_block.shape} incompatible with "
                    f"{out.shape}"
                )
            out += y_block
        return out

    def _blocked_dispatch(self, kernel: Any, state: Any,
                          x_block: np.ndarray,
                          jobs: Optional[int],
                          block_size: Optional[int]) -> np.ndarray:
        """Shared block/shard driver for the multi-vector entry points.

        Slices the ``(ncols, n_vectors)`` input into contiguous vector
        blocks, shards each block on the segment grid, and routes every
        (block, shard) pair through ``kernel`` — the resolved engine's
        bound ``spmm`` or ``spmv_batch`` method — via the
        :meth:`_reduce_block` envelope (fault hook, empty-shard skip).
        """
        n_vectors = x_block.shape[1]
        out = np.zeros((self.shape[0], n_vectors), dtype=np.float64)
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
                self._reduce_block(kernel, state, out, xb, j0, j1,
                                   0, self.n_segments)
            else:
                pool = _pool()
                _join_shards([
                    pool.submit(
                        self._reduce_block, kernel, state, out, xb,
                        j0, j1, lo, hi
                    )
                    for lo, hi in shards
                ])
        return out

    def _reduce_block(self, kernel: Any, state: Any, out: np.ndarray,
                      xb: np.ndarray, j0: int, j1: int, lo: int,
                      hi: int) -> None:
        """Dispatch one (vector block, shard) pair to ``kernel``.

        ``xb`` is the contiguous ``(ncols, j1 - j0)`` slice of the
        input block.  Same backend-independent envelope as
        :meth:`_run_shard`: fault hook first, empty shards never reach
        a kernel.
        """
        hook = _SHARD_HOOK
        if hook is not None:
            hook(lo, hi)
        if lo >= hi:
            return
        kernel(self, state, xb, out, j0, j1, lo, hi)

    def spmv_batch(self, xs: np.ndarray,
                   jobs: Optional[int] = None,
                   block_size: Optional[int] = None,
                   backend: Union[None, str, ExecutionBackend] = None,
                   ) -> np.ndarray:
        """Batched SpMV: ``(n_queries, ncols)`` → ``(n_queries, nrows)``.

        Coalesces the queries into the blocked multi-vector kernel so
        the plan arrays are streamed once per vector block instead of
        once per query; row ``i`` of the result is bitwise identical to
        ``spmv(xs[i])``.  Backends may override
        :meth:`~repro.exec.backends.base.ExecutionBackend.spmv_batch`
        with a batch-specialized kernel (the default delegates to their
        ``spmm``).
        """
        engine, state = self._dispatch(backend, "spmv_batch")
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.shape[1]:
            raise ValueError(
                f"query batch of shape {xs.shape} incompatible with "
                f"{self.shape}"
            )
        if xs.shape[0] == 0:
            return np.zeros((0, self.shape[0]), dtype=np.float64)
        # Contiguity only on both transposes: the dispatch pins the
        # value dtype itself and yt already carries the output dtype.
        yt = self._blocked_dispatch(
            engine.spmv_batch, state,
            np.ascontiguousarray(xs.T),  # lint: allow(exec.implicit-dtype)
            jobs, block_size,
        )
        return np.ascontiguousarray(yt.T)  # lint: allow(exec.implicit-dtype)
