"""Seeded, deterministic fault injection for SPASM's fast paths.

Every injector draws from one ``numpy`` generator seeded at
construction, so a campaign (or a failing test) is reproducible from
its seed alone.  Faults come in two flavors:

* **data faults** mutate an artifact *in place* — a bit flipped in the
  position-word stream, the value payload or a compiled plan array, a
  truncated/zeroed/garbage-filled artifact-cache file, a flipped bit in
  a packed HBM channel image.  In-place mutation matters: it models
  corruption happening *after* the guard pinned its trust anchors, the
  scenario integrity machinery exists for.
* **worker faults** hook the shard dispatch inside
  :meth:`repro.exec.plan.ExecutionPlan.spmv` and kill, stall or delay a
  chosen shard invocation (:func:`worker_fault`).

Each injection returns a :class:`FaultRecord` describing exactly what
was done, so campaign reports can attribute every outcome.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.exec.plan import set_shard_fault_hook


class InjectedFault(RuntimeError):
    """Base class of all deliberately injected failures."""


class InjectedWorkerFault(InjectedFault):
    """Raised inside a shard worker by :func:`worker_fault`."""


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """What one injection actually did.

    Attributes
    ----------
    surface:
        Which layer was hit: ``stream``, ``value``, ``plan``,
        ``backend`` (a kernel backend's prepared scratch), ``cache``,
        ``image`` or ``worker``.
    mode:
        The corruption applied (``bitflip``, ``truncate``, ``zero``,
        ``garbage``, ``kill``, ``stall``, ``delay``).
    location:
        Human-readable coordinates of the hit.
    details:
        Machine-readable payload (indices, bits, byte offsets).
    """

    surface: str
    mode: str
    location: str
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "surface": self.surface,
            "mode": self.mode,
            "location": self.location,
            "details": dict(self.details),
        }


def clone_spasm(spasm: Any) -> Any:
    """A deep copy of an encoded matrix safe to corrupt.

    All stored arrays are copied (so in-place faults never touch the
    pristine original) and no lazily cached plan is carried over.
    """
    return dataclasses.replace(
        spasm,
        tile_rows=spasm.tile_rows.copy(),
        tile_cols=spasm.tile_cols.copy(),
        tile_ptr=spasm.tile_ptr.copy(),
        words=spasm.words.copy(),
        values=spasm.values.copy(),
    )


class FaultInjector:
    """Deterministic fault source; one seed reproduces a whole campaign.

    All ``flip_*`` methods mutate their target **in place** and return
    a :class:`FaultRecord`; use :func:`clone_spasm` (or array copies)
    first when the pristine artifact must survive.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    # -- stream faults -------------------------------------------------

    def flip_stream_word(self, spasm: Any) -> FaultRecord:
        """Flip one bit of one 32-bit position word."""
        group = int(self.rng.integers(0, max(spasm.words.size, 1)))
        bit = int(self.rng.integers(0, 32))
        spasm.words[group] ^= np.uint32(1) << np.uint32(bit)
        return FaultRecord(
            surface="stream", mode="bitflip",
            location=f"words[{group}] bit {bit}",
            details={"group": group, "bit": bit},
        )

    def flip_value(self, spasm: Any) -> FaultRecord:
        """Flip one bit of one stored float64 slot value."""
        flat = spasm.values.reshape(-1).view(np.uint64)
        slot = int(self.rng.integers(0, max(flat.size, 1)))
        bit = int(self.rng.integers(0, 64))
        flat[slot] ^= np.uint64(1) << np.uint64(bit)
        return FaultRecord(
            surface="value", mode="bitflip",
            location=f"values.flat[{slot}] bit {bit}",
            details={"slot": slot, "bit": bit},
        )

    # -- plan faults ---------------------------------------------------

    def flip_plan_array(self, plan: Any) -> FaultRecord:
        """Flip one bit in one of the plan's executable arrays.

        Itemsize-aware: the array is viewed as raw bytes, so every bit
        of a compact v2 layout (int32 indices, float32 values) is as
        reachable as an int64/float64 word — no dtype is excluded from
        the fault surface.
        """
        candidates = [
            name for name in ("cols", "vals", "seg_starts", "seg_rows")
            if getattr(plan, name).size
        ]
        name = candidates[int(self.rng.integers(0, len(candidates)))]
        arr = getattr(plan, name)
        flat = arr.reshape(-1).view(np.uint8)
        byte = int(self.rng.integers(0, flat.size))
        bit = int(self.rng.integers(0, 8))
        flat[byte] ^= np.uint8(1 << bit)
        return FaultRecord(
            surface="plan", mode="bitflip",
            location=f"{name} byte {byte} bit {bit} "
                     f"({arr.dtype.name})",
            details={"array": name, "byte": byte, "bit": bit,
                     "dtype": arr.dtype.name},
        )

    # -- backend-state faults ------------------------------------------

    def flip_backend_state(self, plan: Any,
                           backend: str) -> Optional[FaultRecord]:
        """Flip one bit in a backend's *prepared* scratch arrays.

        Backends upload per-plan device state at
        :meth:`~repro.exec.backends.base.ExecutionBackend.prepare`
        time (the CSR backend's dense row pointer, the gather
        backend's widened index copies); this hits that prepared
        surface rather than the plan's own arrays, modeling corruption
        of scratch the guard's checksum never covers.  The prepared
        state is materialized through the plan's memo
        (so the flip lands in exactly the arrays a later dispatch
        consumes) and cleared by ``plan._scratch.clear()``.  Returns
        ``None`` when the backend exposes no byte-addressable state.
        """
        from repro.exec.backends import resolve_backend

        engine = resolve_backend(backend, plan=plan, op="spmv")
        arrays = engine.prepared_arrays(
            plan._backend_state(engine)
        )
        candidates = sorted(
            name for name, arr in arrays.items() if arr.size
        )
        if not candidates:
            return None
        name = candidates[int(self.rng.integers(0, len(candidates)))]
        arr = arrays[name]
        flat = arr.reshape(-1).view(np.uint8)
        byte = int(self.rng.integers(0, flat.size))
        bit = int(self.rng.integers(0, 8))
        flat[byte] ^= np.uint8(1 << bit)
        return FaultRecord(
            surface="backend", mode="bitflip",
            location=f"{engine.name}:{name} byte {byte} bit {bit} "
                     f"({arr.dtype.name})",
            details={"backend": engine.name, "array": name,
                     "byte": byte, "bit": bit,
                     "dtype": arr.dtype.name},
        )

    # -- cache faults --------------------------------------------------

    def corrupt_cache_entry(self, cache: Any,
                            mode: Optional[str] = None,
                            entry: Optional[str] = None,
                            ) -> Optional[FaultRecord]:
        """Truncate, zero or garbage one on-disk ``.npz`` cache entry.

        ``entry`` names the file to hit (default: a seeded pick among
        all entries).  Returns ``None`` when there is nothing to
        corrupt: the cache is empty or holds no such entry.
        """
        entries = cache.entries()
        if entry is None and entries:
            entry = entries[int(self.rng.integers(0, len(entries)))]
        if entry not in entries:
            return None
        name = entry
        path = os.path.join(cache.cache_dir, name)
        if mode is None:
            mode = ("truncate", "zero", "garbage")[
                int(self.rng.integers(0, 3))
            ]
        blob = bytearray(open(path, "rb").read())
        size = len(blob)
        if mode == "truncate":
            keep = int(self.rng.integers(0, max(size, 1)))
            blob = blob[:keep]
            detail: Dict[str, Any] = {"kept_bytes": keep,
                                      "orig_bytes": size}
        elif mode == "zero":
            lo = int(self.rng.integers(0, max(size, 1)))
            hi = min(size, lo + int(self.rng.integers(1, 64)))
            blob[lo:hi] = bytes(hi - lo)
            detail = {"zeroed": [lo, hi]}
        else:  # garbage
            lo = int(self.rng.integers(0, max(size, 1)))
            hi = min(size, lo + int(self.rng.integers(1, 64)))
            blob[lo:hi] = self.rng.bytes(hi - lo)
            detail = {"garbled": [lo, hi]}
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        detail["entry"] = name
        return FaultRecord(
            surface="cache", mode=mode, location=name, details=detail,
        )

    # -- memory-image faults -------------------------------------------

    def flip_image_bit(self, image: Any) -> Tuple[Any, FaultRecord]:
        """Flip one bit in one packed HBM channel image.

        Channel images are immutable ``bytes``; the mutated
        :class:`~repro.hw.memory_image.MemoryImage` is returned
        alongside the record.
        """
        pools = [
            ("value", dict(image.value_images)),
            ("position", dict(image.position_images)),
        ]
        kind, images = pools[int(self.rng.integers(0, 2))]
        names = sorted(ch for ch, img in images.items() if len(img))
        if not names:
            kind, images = pools[0] if kind == "position" else pools[1]
            names = sorted(
                ch for ch, img in images.items() if len(img)
            )
        channel = names[int(self.rng.integers(0, len(names)))]
        blob = bytearray(images[channel])
        byte = int(self.rng.integers(0, len(blob)))
        bit = int(self.rng.integers(0, 8))
        blob[byte] ^= 1 << bit
        images[channel] = bytes(blob)
        mutated = dataclasses.replace(
            image,
            value_images=(
                images if kind == "value" else dict(image.value_images)
            ),
            position_images=(
                images if kind == "position"
                else dict(image.position_images)
            ),
        )
        record = FaultRecord(
            surface="image", mode="bitflip",
            location=f"{channel} byte {byte} bit {bit}",
            details={"channel": channel, "byte": byte, "bit": bit},
        )
        return mutated, record

    # -- worker faults -------------------------------------------------

    @contextlib.contextmanager
    def worker_fault(self, mode: str = "kill", nth: Optional[int] = None,
                     delay_s: float = 0.005,
                     ) -> Iterator[FaultRecord]:
        """Arm a shard-worker fault for the duration of the context.

        ``mode="kill"`` raises :class:`InjectedWorkerFault` inside the
        ``nth`` shard invocation (chosen by the injector's generator
        when not given); ``"stall"``/``"delay"`` sleep ``delay_s``
        instead.  The hook is installed process-wide through
        :func:`repro.exec.plan.set_shard_fault_hook` and restored on
        exit; invocation counting is thread-safe, so exactly one shard
        is hit no matter the shard grid.  The yielded record's
        ``details["fired"]`` turns true once that shard invocation
        ran — fewer invocations mean the fault never fired.
        """
        if mode not in ("kill", "stall", "delay"):
            raise ValueError(f"unknown worker fault mode {mode!r}")
        if nth is None:
            nth = int(self.rng.integers(0, 4))
        lock = threading.Lock()
        state = {"calls": 0}
        record = FaultRecord(
            surface="worker", mode=mode,
            location=f"shard invocation {nth}",
            details={"nth": nth, "delay_s": delay_s, "fired": False},
        )

        def hook(lo: int, hi: int) -> None:
            with lock:
                call = state["calls"]
                state["calls"] += 1
            if call == nth:
                record.details["fired"] = True
                if mode == "kill":
                    raise InjectedWorkerFault(
                        f"injected worker fault in shard [{lo}, {hi})"
                    )
                time.sleep(delay_s)

        previous = set_shard_fault_hook(hook)
        try:
            yield record
        finally:
            set_shard_fault_hook(previous)
