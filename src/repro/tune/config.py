"""Persisted per-matrix tuning records.

A :class:`TunedConfig` is the durable outcome of one
:func:`repro.tune.search.tune_matrix` run: every knob the tuner
explored, frozen to the measured-best choice, together with the
evidence (measured timings, the analytic model score of the structural
choice, and how hard the search pruned).  Records live in the ordinary
:class:`~repro.pipeline.cache.ArtifactCache` as ``tuned-<key>.npz``
entries keyed on the matrix content digest, so they inherit the
cache's atomic writes, payload checksums and corruption quarantine;
:data:`TUNER_VERSION` in the metadata invalidates every record when
the search semantics change.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

import numpy as np

from repro.pipeline.cache import KEY_CHARS, ArtifactCache

#: Bumped whenever the search semantics or the record schema change;
#: a persisted record with any other version is a plain cache miss
#: (re-tuned and overwritten), never an error.
TUNER_VERSION = 1

#: ArtifactCache stage name of tuning records (``tuned-<key>.npz``).
TUNED_STAGE = "tuned"

#: Metadata keys the cache layer adds on store; everything else in an
#: entry's metadata must round-trip a :class:`TunedConfig`.
_CACHE_META_KEYS = frozenset({"magic", "checksum"})


@dataclasses.dataclass(frozen=True)
class TunedConfig:
    """The measured-best knob assignment for one matrix.

    Structural knobs (``portfolio``/``tile_size``) drive the compile
    side: :class:`~repro.core.framework.SpasmCompiler` maps them to
    ``fixed_portfolio``/``fixed_tile_size``, skipping the selection
    and schedule sweeps.  They are applied to the numeric path only
    when ``structure_bitwise`` is true — the tuner proved the
    re-encoded stream reproduces the default encoding's float64 SpMV
    output bit for bit (a different slot order may legally reorder
    float accumulation, and the numeric contract wins over a modeled
    cycle gain).

    Execution knobs (``index``/``precision``/``backend``/``jobs``/
    ``batch_block``) drive dispatch: they are bitwise-safe by the
    engine's own invariants (every float64 backend, layout and shard
    grid accumulates segments in the same order), so callers pass them
    straight to the plan's ``backend=``/``jobs=``/``block_size=``
    arguments (the backend through :meth:`pinned_backend`).
    """

    matrix_digest: str
    portfolio: str
    tile_size: int
    index: str
    precision: str
    backend: str
    jobs: int
    batch_block: int
    structure_bitwise: bool
    spmv_ms: float
    default_spmv_ms: float
    batch_qps: float
    default_batch_qps: float
    model_cycles: float
    candidates_total: int
    candidates_measured: int
    tuner_version: int = TUNER_VERSION

    @property
    def speedup(self) -> float:
        """Measured tuned-over-default SpMV speedup (>1 is a win)."""
        if self.spmv_ms <= 0.0:
            return 1.0
        return self.default_spmv_ms / self.spmv_ms

    def pinned_backend(self) -> Optional[str]:
        """The record's backend if this process can dispatch it.

        ``None`` (auto negotiation) when the name is not registered
        here or its dependency is missing: a record tuned on a host
        with numba must still run without it.
        """
        from repro.exec.backends.registry import get_backend

        try:
            available = get_backend(self.backend).is_available()
        except KeyError:
            return None
        return self.backend if available else None

    @property
    def layout(self) -> str:
        """The plan array layout this config pins (``index/value``)."""
        return f"{self.index}/{self.precision}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (also the persisted cache metadata)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "TunedConfig":
        """Rebuild a config from persisted entry metadata.

        Strict on shape: a missing field, an unknown extra field or a
        mistyped value raises ``ValueError`` so the caller can
        quarantine the record — a tuning record that half-parses must
        never steer execution.
        """
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        payload = {
            key: value for key, value in meta.items()
            if key not in _CACHE_META_KEYS
        }
        missing = sorted(set(fields) - set(payload))
        unknown = sorted(set(payload) - set(fields))
        if missing or unknown:
            raise ValueError(
                f"malformed tuning record: missing={missing} "
                f"unknown={unknown}"
            )
        try:
            return cls(
                matrix_digest=str(payload["matrix_digest"]),
                portfolio=str(payload["portfolio"]),
                tile_size=int(payload["tile_size"]),
                index=str(payload["index"]),
                precision=str(payload["precision"]),
                backend=str(payload["backend"]),
                jobs=int(payload["jobs"]),
                batch_block=int(payload["batch_block"]),
                structure_bitwise=bool(payload["structure_bitwise"]),
                spmv_ms=float(payload["spmv_ms"]),
                default_spmv_ms=float(payload["default_spmv_ms"]),
                batch_qps=float(payload["batch_qps"]),
                default_batch_qps=float(payload["default_batch_qps"]),
                model_cycles=float(payload["model_cycles"]),
                candidates_total=int(payload["candidates_total"]),
                candidates_measured=int(payload["candidates_measured"]),
                tuner_version=int(payload["tuner_version"]),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed tuning record: {exc}") from exc


def tuned_cache_key(matrix_digest: str) -> str:
    """Cache key of a matrix's tuning record (digest prefix)."""
    return matrix_digest[:KEY_CHARS]


def store_tuned(cache: ArtifactCache, config: TunedConfig) -> None:
    """Persist one tuning record (atomic, checksummed, overwrites)."""
    cache.store(
        TUNED_STAGE,
        tuned_cache_key(config.matrix_digest),
        # The payload array only exists to give the checksum machinery
        # bytes to cover; the record itself is the metadata.
        {"tuner_version": np.array([config.tuner_version],
                                   dtype=np.int64)},
        meta=config.as_dict(),
    )


def load_tuned(cache: ArtifactCache,
               matrix_digest: str) -> Optional[TunedConfig]:
    """The persisted record for a matrix digest, or ``None``.

    Misses on: no record, a record written by a different
    :data:`TUNER_VERSION` (stale, silently re-tuned), or a corrupt
    record — structural corruption is quarantined by the cache layer
    itself, while a record that loads but fails
    :meth:`TunedConfig.from_meta` or was stored under a foreign digest
    is quarantined here.  A bad record is consulted exactly once.
    """
    key = tuned_cache_key(matrix_digest)
    entry = cache.load(TUNED_STAGE, key)
    if entry is None:
        return None
    try:
        config = TunedConfig.from_meta(entry.meta)
    except ValueError as exc:
        cache.quarantine(TUNED_STAGE, key, reason=str(exc))
        return None
    if config.tuner_version != TUNER_VERSION:
        return None
    if config.matrix_digest != matrix_digest:
        cache.quarantine(
            TUNED_STAGE, key,
            reason=(f"digest mismatch: record for "
                    f"{config.matrix_digest[:12]}... filed under "
                    f"{matrix_digest[:12]}..."),
        )
        return None
    return config
