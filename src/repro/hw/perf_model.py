"""Analytic performance model — Algorithm 4's ``PERF_MODEL``.

Estimates the execution cycles of a SPASM run from the matrix's global
composition and a hardware configuration.  The accelerator is a set of
pipelines that overlap thanks to double buffering, so total cycles are
the *maximum* of the competing resource bounds, not their sum:

* **compute** — each PE issues one template group per cycle plus a small
  tile-switch overhead; the slowest PE bounds the machine (this is the
  load-imbalance term the schedule exploration attacks);
* **A-value stream** — 4 PEs share one HBM channel carrying ``k * 4``
  bytes per group;
* **position stream** — 16 PEs share 2 channels carrying 4 bytes/group;
* **x load** — each tile a PE processes pulls a ``tile_size * 4`` byte
  x segment through the group's ``NUM_XVEC_CH`` channels (overlapped via
  the double buffer);
* **y traffic** — each partial-sum flush is a ``tile_size``-wide
  read-modify-write through the single y channel.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np

from repro.core.tiling import GlobalComposition
from repro.hw.configs import (
    HwConfig,
    PES_PER_GROUP,
    PES_PER_VALUE_CHANNEL,
    POSITION_CHANNELS_PER_GROUP,
)
from repro.hw.pe import TILE_SWITCH_CYCLES

#: Fixed pipeline fill/drain cost per run.
PIPELINE_FILL_CYCLES = 64


def assign_tiles(groups_per_tile: np.ndarray, n_pes: int,
                 policy: str = "greedy") -> np.ndarray:
    """Deterministic tile -> PE assignment.

    Both the performance model and the functional simulator use this
    routine, so their load pictures agree.  Policies:

    * ``"greedy"`` (default) — stream order, least-loaded PE first;
      what the SPASM scheduler deploys.
    * ``"round-robin"`` — tile ``i`` to PE ``i % n_pes``; the naive
      baseline the ablation bench compares against.
    * ``"lpt"`` — Longest Processing Time: tiles sorted by descending
      load, then least-loaded-first.  The classic makespan heuristic;
      needs all tiles up front, so it is an offline upper bound for the
      streaming greedy.

    Returns
    -------
    np.ndarray
        PE id of each tile (original stream order).
    """
    groups_per_tile = np.asarray(groups_per_tile, dtype=np.int64)
    n_tiles = groups_per_tile.size
    if policy == "round-robin":
        return np.arange(n_tiles, dtype=np.int64) % n_pes
    if policy == "lpt":
        order = np.argsort(-groups_per_tile, kind="stable")
    elif policy == "greedy":
        order = np.arange(n_tiles)
    else:
        raise ValueError(
            f"unknown policy {policy!r}; choose greedy, round-robin "
            "or lpt"
        )
    heap = [(0, pe) for pe in range(n_pes)]
    heapq.heapify(heap)
    owner = np.empty(n_tiles, dtype=np.int64)
    for t in order:
        current, pe = heapq.heappop(heap)
        owner[t] = pe
        heapq.heappush(heap, (current + int(groups_per_tile[t]), pe))
    return owner


@dataclasses.dataclass(frozen=True)
class PerfBreakdown:
    """Per-resource cycle bounds of one estimated run."""

    compute_cycles: float
    value_stream_cycles: float
    position_stream_cycles: float
    x_load_cycles: float
    y_cycles: float

    @property
    def total_cycles(self) -> float:
        """Overall bound: the slowest overlapped resource plus fill."""
        return (
            max(
                self.compute_cycles,
                self.value_stream_cycles,
                self.position_stream_cycles,
                self.x_load_cycles,
                self.y_cycles,
            )
            + PIPELINE_FILL_CYCLES
        )

    @property
    def bottleneck(self) -> str:
        """Name of the binding resource."""
        bounds = {
            "compute": self.compute_cycles,
            "value-stream": self.value_stream_cycles,
            "position-stream": self.position_stream_cycles,
            "x-load": self.x_load_cycles,
            "y": self.y_cycles,
        }
        return max(bounds, key=lambda name: bounds[name])


def perf_breakdown(composition: GlobalComposition, config: HwConfig,
                   tile_size: int = None,
                   policy: str = "greedy") -> PerfBreakdown:
    """Estimate the per-resource cycle bounds of one run.

    ``policy`` selects the tile -> PE assignment (see
    :func:`assign_tiles`); the scheduling ablation sweeps it.
    """
    if tile_size is None:
        tile_size = composition.tile_size
    k = composition.k
    bpc = config.bytes_per_cycle_per_channel
    n_pes = config.num_pes

    groups_per_tile = composition.groups_per_tile
    owner = assign_tiles(groups_per_tile, n_pes, policy)

    # Compute bound: slowest PE.
    pe_groups = np.bincount(
        owner, weights=groups_per_tile, minlength=n_pes
    ).astype(np.int64)
    pe_tiles = np.bincount(owner, minlength=n_pes)
    compute = (
        (pe_groups + TILE_SWITCH_CYCLES * pe_tiles).max()
        if owner.size
        else 0
    )

    # A-value stream: 4 consecutive PEs share one channel (k*4 B/group).
    n_value_ch = n_pes // PES_PER_VALUE_CHANNEL
    ch_of_pe = np.arange(n_pes) // PES_PER_VALUE_CHANNEL
    value_bytes = np.bincount(
        ch_of_pe, weights=pe_groups * (k * 4), minlength=n_value_ch
    )
    value_cycles = value_bytes.max() / bpc if value_bytes.size else 0.0

    # Position stream: 16 PEs share 2 channels (4 B/group).
    group_of_pe = np.arange(n_pes) // PES_PER_GROUP
    pos_bytes = np.bincount(
        group_of_pe, weights=pe_groups * 4, minlength=config.num_pe_groups
    )
    pos_cycles = (
        pos_bytes.max() / (POSITION_CHANNELS_PER_GROUP * bpc)
        if pos_bytes.size
        else 0.0
    )

    # x load: every tile pulls one tile_size x-segment through the
    # group's x channels.
    x_bytes = np.bincount(
        group_of_pe,
        weights=pe_tiles * tile_size * 4,
        minlength=config.num_pe_groups,
    )
    x_cycles = (
        x_bytes.max() / (config.num_xvec_ch * bpc) if x_bytes.size else 0.0
    )

    # y: per-PE partial sums merge on chip in the partial-sum merge unit,
    # so the single y channel sees one read-modify-write per non-empty
    # tile row.
    n_rows_present = np.unique(composition.tile_rows).size
    y_cycles = n_rows_present * tile_size * 8 / bpc

    return PerfBreakdown(
        compute_cycles=float(compute),
        value_stream_cycles=float(value_cycles),
        position_stream_cycles=float(pos_cycles),
        x_load_cycles=float(x_cycles),
        y_cycles=float(y_cycles),
    )


def perf_model(composition: GlobalComposition, config: HwConfig,
               tile_size: int = None) -> float:
    """Algorithm 4's PERF_MODEL: estimated cycles of one run.

    Infeasible points — tile buffers exceeding the platform's on-chip
    RAM — cost infinity, so the schedule exploration prunes them.
    """
    if tile_size is None:
        tile_size = composition.tile_size
    if not config.fits_onchip(tile_size):
        return float("inf")
    return perf_breakdown(composition, config, tile_size).total_cycles


def perf_breakdown_spmm(composition: GlobalComposition, config: HwConfig,
                        n_vectors: int, tile_size: int = None,
                        policy: str = "greedy") -> PerfBreakdown:
    """Cycle bounds of a multi-vector run (``Y = A @ X``, extension).

    The A stream (values + position words) is read **once** while each
    group issues ``n_vectors`` VALU operations and the x/y traffic
    scales with ``n_vectors`` — so compute and vector traffic grow
    linearly but the dominant A-stream term is amortized, raising
    arithmetic intensity.  For SPASM's typically stream- or
    compute-bound matrices this converts directly into utilization.
    """
    if n_vectors < 1:
        raise ValueError(f"n_vectors must be >= 1, got {n_vectors}")
    single = perf_breakdown(composition, config, tile_size, policy)
    return PerfBreakdown(
        compute_cycles=single.compute_cycles * n_vectors,
        value_stream_cycles=single.value_stream_cycles,
        position_stream_cycles=single.position_stream_cycles,
        x_load_cycles=single.x_load_cycles * n_vectors,
        y_cycles=single.y_cycles * n_vectors,
    )


def estimate_spmm_gflops(composition: GlobalComposition, config: HwConfig,
                         nnz: int, nrows: int, n_vectors: int) -> float:
    """Paper-style throughput of a multi-vector run."""
    cycles = perf_breakdown_spmm(
        composition, config, n_vectors
    ).total_cycles
    time_s = cycles / config.frequency_hz
    flops = (2 * nnz + nrows) * n_vectors
    return flops / time_s / 1e9 if time_s else 0.0
