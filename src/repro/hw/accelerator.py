"""Functional simulator of the whole SPASM accelerator (paper Figure 7).

Executes a SPASM-encoded matrix through the real datapath model — tile
scheduling, per-PE VALU execution via the 30-bit opcode LUT, double
buffers, partial-sum flushes and the HBM channel accounting — and
returns both the numeric result and the cycle estimate.  Agreement of
the numeric result with ``A @ x + y`` is the end-to-end correctness
check of the format + opcode + datapath stack.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

import numpy as np

from repro.core.format import SpasmMatrix
from repro.hw.configs import HwConfig
from repro.hw.hbm import HBMSystem
from repro.hw.opcode import opcode_table
from repro.hw.pe_group import PEGroup
from repro.hw.perf_model import assign_tiles, perf_breakdown


@dataclasses.dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated SpMV run.

    Attributes
    ----------
    y:
        The computed output vector (``A @ x + y0``).
    cycles:
        Estimated execution cycles (perf-model bound over the actual
        per-PE workload).
    time_s:
        ``cycles / frequency``.
    gflops:
        Paper metric ``(2*nnz + nrows) / time``.
    hbm_bytes:
        Total bytes moved across all channels.
    pe_groups_executed:
        Template groups executed per PE (load picture).
    bottleneck:
        Name of the binding resource.
    """

    y: np.ndarray
    cycles: float
    time_s: float
    gflops: float
    hbm_bytes: int
    pe_groups_executed: np.ndarray
    bottleneck: str


class SpasmAccelerator:
    """A configured SPASM accelerator instance.

    Parameters
    ----------
    config:
        The hardware version (bitstream) to simulate.
    """

    def __init__(self, config: HwConfig):
        self.config = config

    def run(self, spasm: SpasmMatrix, x: np.ndarray,
            y: Optional[np.ndarray] = None,
            engine: str = "event", verify: bool = False,
            jobs: Optional[int] = None,
            guard: Optional[Any] = None) -> SimResult:
        """Simulate ``y = A @ x + y`` for a SPASM-encoded matrix.

        ``engine="event"`` walks every group through the opcode-decoded
        VALU datapath (the verification path); ``engine="fast"`` uses
        the vectorized :mod:`repro.hw.fast_sim` equivalent — identical
        results and accounting, orders of magnitude faster on large
        matrices, with ``jobs`` sharding the numeric execution plan
        over a thread pool.  ``verify=True`` statically checks the
        stream and its opcode LUT first, raising
        :class:`~repro.verify.diagnostics.VerificationError` listing
        every violation before any cycle is simulated.  ``guard`` (an
        :class:`~repro.resilience.guard.ExecutionGuard` for this
        matrix) routes the fast engine's numeric execution through the
        guarded layer; it requires ``engine="fast"``.
        """
        if verify:
            self._verify(spasm)
        if engine == "fast":
            from repro.hw.fast_sim import fast_run

            return fast_run(spasm, self.config, x, y, jobs=jobs,
                            guard=guard)
        if guard is not None:
            raise ValueError(
                "guarded execution requires engine='fast'"
            )
        if engine != "event":
            raise ValueError(
                f"unknown engine {engine!r}; choose 'event' or 'fast'"
            )
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (spasm.shape[1],):
            raise ValueError(
                f"x of shape {x.shape} incompatible with {spasm.shape}"
            )
        if y is None:
            y_out = np.zeros(spasm.shape[0], dtype=np.float64)
        else:
            y_out = np.array(y, dtype=np.float64)
            if y_out.shape != (spasm.shape[0],):
                raise ValueError(
                    f"y of shape {y_out.shape} incompatible with "
                    f"{spasm.shape}"
                )

        lut = opcode_table(spasm.portfolio)
        groups = [
            PEGroup(g, lut, spasm.tile_size, spasm.k)
            for g in range(self.config.num_pe_groups)
        ]
        pes = [pe for grp in groups for pe in grp]

        # Same scheduling policy as the performance model.
        owner = assign_tiles(spasm.groups_per_tile(), self.config.num_pes)

        tiles = list(spasm.tiles())
        per_pe_tiles = [[] for __ in pes]
        for t, pe_id in enumerate(owner):
            per_pe_tiles[pe_id].append(tiles[t])

        tile_size = spasm.tile_size
        for pe, pe_tiles in zip(pes, per_pe_tiles):
            current_row = None
            for tile in pe_tiles:
                if current_row is not None and tile.tile_row != current_row:
                    pe.flush_psum(y_out, current_row * tile_size)
                current_row = tile.tile_row
                x_lo = tile.tile_col * tile_size
                x_hi = min(x_lo + tile_size, x.size)
                pe.process_tile(tile, x[x_lo:x_hi])
            if current_row is not None:
                pe.flush_psum(y_out, current_row * tile_size)

        hbm = HBMSystem(self.config)
        for grp in groups:
            grp.charge_channels(hbm, self.config)
        total_flush_bytes = sum(pe.stats.psum_bytes for pe in pes)
        hbm["y"].transfer(total_flush_bytes)

        breakdown = perf_breakdown(
            spasm.global_composition(), self.config, tile_size
        )
        cycles = breakdown.total_cycles
        time_s = cycles / self.config.frequency_hz
        flops = 2 * spasm.source_nnz + spasm.shape[0]
        return SimResult(
            y=y_out,
            cycles=cycles,
            time_s=time_s,
            gflops=flops / time_s / 1e9 if time_s else 0.0,
            hbm_bytes=hbm.total_bytes,
            pe_groups_executed=np.array(
                [pe.stats.groups for pe in pes], dtype=np.int64
            ),
            bottleneck=breakdown.bottleneck,
        )

    def _verify(self, spasm: SpasmMatrix) -> None:
        """Statically verify a stream before simulating it."""
        from repro.verify.runner import verify_spasm

        report = verify_spasm(spasm)
        report.raise_if_errors()

    def run_spmm(self, spasm: SpasmMatrix, x_block: np.ndarray,
                 y_block: Optional[np.ndarray] = None,
                 verify: bool = False, jobs: Optional[int] = None,
                 guard: Optional[Any] = None) -> SimResult:
        """Simulate a multi-vector run ``Y = A @ X + Y`` (extension).

        Numeric output comes from the format's exact SpMM semantics
        (through the compiled plan, one gather per vector block);
        cycles from :func:`repro.hw.perf_model.perf_breakdown_spmm`
        (the A stream read once, compute/x/y scaled by the batch).
        ``verify=True`` behaves as in :meth:`run`; ``guard`` routes
        the numeric execution through the guarded layer as in
        :meth:`run`.
        """
        if verify:
            self._verify(spasm)
        from repro.hw.perf_model import perf_breakdown_spmm

        if guard is not None:
            if guard.spasm is not spasm:
                raise ValueError(
                    "guard was built for a different matrix instance"
                )
            y_out = guard.spmm(x_block, y_block, jobs=jobs)
        else:
            y_out = spasm.spmm(x_block, y_block, jobs=jobs)
        n_vectors = y_out.shape[1]
        breakdown = perf_breakdown_spmm(
            spasm.global_composition(), self.config, n_vectors,
            spasm.tile_size,
        )
        cycles = breakdown.total_cycles
        time_s = cycles / self.config.frequency_hz
        flops = (2 * spasm.source_nnz + spasm.shape[0]) * n_vectors
        owner = assign_tiles(spasm.groups_per_tile(), self.config.num_pes)
        pe_groups = np.bincount(
            owner,
            weights=spasm.groups_per_tile(),
            minlength=self.config.num_pes,
        ).astype(np.int64) * n_vectors
        a_bytes = spasm.n_groups * (spasm.k + 1) * 4
        xy_bytes = (
            spasm.n_tiles * spasm.tile_size * 4
            + spasm.shape[0] * 8
        ) * n_vectors
        return SimResult(
            y=y_out,
            cycles=cycles,
            time_s=time_s,
            gflops=flops / time_s / 1e9 if time_s else 0.0,
            hbm_bytes=a_bytes + xy_bytes,
            pe_groups_executed=pe_groups,
            bottleneck=breakdown.bottleneck,
        )

    def run_batch(self, spasm: SpasmMatrix, xs: np.ndarray,
                  verify: bool = False, jobs: Optional[int] = None,
                  guard: Optional[Any] = None) -> SimResult:
        """Simulate a batch of independent queries, one per row of
        ``xs``.

        Numeric output comes from the plan's blocked SpMM engine
        (bitwise equal to ``n_queries`` :meth:`run` calls with
        ``engine="fast"``); cycles and HBM traffic amortize the A
        stream over the batch as in :meth:`run_spmm`.  The result's
        ``y`` is the ``(n_queries, nrows)`` output block.
        """
        if verify:
            self._verify(spasm)
        from repro.hw.fast_sim import fast_run_batch

        return fast_run_batch(spasm, self.config, xs, jobs=jobs,
                              guard=guard)
