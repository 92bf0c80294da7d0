"""Vectorized fast path for the functional simulator.

The event-level simulator in :mod:`repro.hw.accelerator` walks every
template group through the opcode-decoded VALU datapath — ideal for
verification, but Python-loop bound.  This module computes the *same*
:class:`~repro.hw.accelerator.SimResult` with whole-array numpy
operations: identical numeric output, identical tile schedule, identical
per-PE group counts and identical HBM byte accounting.

The numeric shortcut is justified by the test suite: the VALU datapath
is proven equivalent to the template semantics for every one of the
1820 possible templates (``tests/test_valu.py``), so expanding template
cells directly is exact.  Equivalence of the two engines is itself
asserted in ``tests/test_fast_sim.py``.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.format import SpasmMatrix
from repro.hw.configs import HwConfig, PES_PER_GROUP
from repro.hw.perf_model import assign_tiles, perf_breakdown


def fast_run(spasm: SpasmMatrix, config: HwConfig, x: np.ndarray,
             y: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             guard: Optional[Any] = None):
    """Vectorized equivalent of :meth:`SpasmAccelerator.run`.

    The numeric result runs through the matrix's compiled
    :class:`~repro.exec.plan.ExecutionPlan` (built lazily, cached on
    the matrix, ``jobs`` shards on a thread pool); repeated simulations of the same matrix never
    re-expand the stream.  ``guard=True`` routes the call through a
    one-shot :func:`~repro.resilience.guard.guarded_spmv` (integrity
    validation, sampled divergence checks, automatic fallback); a
    prebuilt :class:`~repro.resilience.guard.ExecutionGuard` for this
    matrix amortizes that machinery across calls.  The clean path
    stays bitwise identical in every mode.
    """
    from repro.hw.accelerator import SimResult

    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spasm.shape[1],):
        raise ValueError(
            f"x of shape {x.shape} incompatible with {spasm.shape}"
        )
    if y is None:
        y_out = None
    else:
        y_out = np.array(y, dtype=np.float64)
        if y_out.shape != (spasm.shape[0],):
            raise ValueError(
                f"y of shape {y_out.shape} incompatible with {spasm.shape}"
            )

    # Numeric result: compiled execution of the format (exact).
    if guard is True:
        from repro.resilience.guard import guarded_spmv

        y_out = guarded_spmv(spasm, x, y_out, jobs=jobs)
    elif guard is not None:
        if guard.spasm is not spasm:
            raise ValueError(
                "guard was built for a different matrix instance"
            )
        y_out = guard.spmv(x, y_out, jobs=jobs)
    else:
        y_out = spasm.plan().spmv(x, y_out, jobs=jobs)

    # Schedule and per-PE accounting, mirroring the event simulator.
    groups_per_tile = spasm.groups_per_tile()
    owner = assign_tiles(groups_per_tile, config.num_pes)
    pe_groups = np.bincount(
        owner, weights=groups_per_tile, minlength=config.num_pes
    ).astype(np.int64)

    hbm_bytes = _hbm_bytes(spasm, config, owner, pe_groups)

    breakdown = perf_breakdown(
        spasm.global_composition(), config, spasm.tile_size
    )
    cycles = breakdown.total_cycles
    time_s = cycles / config.frequency_hz
    flops = 2 * spasm.source_nnz + spasm.shape[0]
    return SimResult(
        y=y_out,
        cycles=cycles,
        time_s=time_s,
        gflops=flops / time_s / 1e9 if time_s else 0.0,
        hbm_bytes=hbm_bytes,
        pe_groups_executed=pe_groups,
        bottleneck=breakdown.bottleneck,
    )


def fast_run_batch(spasm: SpasmMatrix, config: HwConfig,
                   xs: np.ndarray, jobs: Optional[int] = None,
                   guard: Optional[Any] = None):
    """Vectorized batched simulation: one query per row of ``xs``.

    The numeric result runs through the plan's blocked SpMM engine
    (:meth:`~repro.exec.plan.ExecutionPlan.spmv_batch`), bitwise equal to ``n_queries`` independent
    :func:`fast_run` calls; with ``guard`` (a prebuilt
    :class:`~repro.resilience.guard.ExecutionGuard`, or ``True`` for a
    transient one) it goes through
    :meth:`~repro.resilience.guard.ExecutionGuard.spmv_batch` instead.
    Cycle and HBM accounting amortize the A-stream read over the batch
    the way :meth:`SpasmAccelerator.run_spmm` does — the returned
    :class:`~repro.hw.accelerator.SimResult` carries the
    ``(n_queries, nrows)`` output block as ``y``.
    """
    from repro.hw.accelerator import SimResult
    from repro.hw.perf_model import perf_breakdown_spmm

    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spasm.shape[1]:
        raise ValueError(
            f"xs of shape {xs.shape} incompatible with {spasm.shape};"
            f" expected (n_queries, {spasm.shape[1]})"
        )
    if guard is True:
        from repro.resilience.guard import ExecutionGuard

        ys = ExecutionGuard(spasm).spmv_batch(xs, jobs=jobs)
    elif guard is not None:
        if guard.spasm is not spasm:
            raise ValueError(
                "guard was built for a different matrix instance"
            )
        ys = guard.spmv_batch(xs, jobs=jobs)
    else:
        ys = spasm.spmv_batch(xs, jobs=jobs)

    n_queries = int(xs.shape[0])
    groups_per_tile = spasm.groups_per_tile()
    owner = assign_tiles(groups_per_tile, config.num_pes)
    pe_groups = np.bincount(
        owner, weights=groups_per_tile, minlength=config.num_pes
    ).astype(np.int64) * max(n_queries, 1)

    breakdown = perf_breakdown_spmm(
        spasm.global_composition(), config, max(n_queries, 1),
        spasm.tile_size,
    )
    cycles = breakdown.total_cycles
    time_s = cycles / config.frequency_hz
    flops = (2 * spasm.source_nnz + spasm.shape[0]) * n_queries
    a_bytes = spasm.n_groups * (spasm.k + 1) * 4
    xy_bytes = (
        spasm.n_tiles * spasm.tile_size * 4
        + spasm.shape[0] * 8
    ) * n_queries
    return SimResult(
        y=ys,
        cycles=cycles,
        time_s=time_s,
        gflops=flops / time_s / 1e9 if time_s else 0.0,
        hbm_bytes=a_bytes + xy_bytes,
        pe_groups_executed=pe_groups,
        bottleneck=breakdown.bottleneck,
    )


def _hbm_bytes(spasm: SpasmMatrix, config: HwConfig, owner: np.ndarray,
               pe_groups: np.ndarray) -> int:
    """Total channel traffic, matching the event simulator's counters.

    The event path charges per PE: ``k*4`` value bytes and 4 position
    bytes per group, the (edge-clipped) x segment per tile, and an
    edge-clipped read-modify-write per (PE, tile-row) flush; the integer
    division when spreading group totals over position/x channels is
    reproduced exactly.
    """
    k = spasm.k
    tile_size = spasm.tile_size
    nrows, ncols = spasm.shape

    # Per-tile x segment size (clipped at the matrix edge).
    x_lo = spasm.tile_cols * tile_size
    seg = np.minimum(tile_size, np.maximum(ncols - x_lo, 0))

    # Per-(PE, tile row) flush span (clipped at the matrix edge).
    row_base = spasm.tile_rows * tile_size
    span = np.minimum(tile_size, np.maximum(nrows - row_base, 0))

    total = 0
    for g in range(config.num_pe_groups):
        lo, hi = g * PES_PER_GROUP, (g + 1) * PES_PER_GROUP
        group_pe_groups = pe_groups[lo:hi]
        # Value channels: exact per-PE sum (4 PEs per channel).
        total += int(group_pe_groups.sum()) * k * 4
        # Position channels: group total split over 2 channels with the
        # same floor division the event path applies.
        pos_total = int(group_pe_groups.sum()) * 4
        total += (pos_total // 2) * 2
        # x channels: per-tile prefetches of the group's PEs.
        in_group = (owner >= lo) & (owner < hi)
        x_total = int(seg[in_group].sum()) * 4
        total += (x_total // config.num_xvec_ch) * config.num_xvec_ch

    # y channel: one flush per (PE, tile row) pair.
    pairs = owner * np.int64(2 ** 32) + spasm.tile_rows
    __, first = np.unique(pairs, return_index=True)
    total += int(span[first].sum()) * 8
    return total
