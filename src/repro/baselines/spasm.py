"""SPASM wrapped in the common :class:`AcceleratorModel` interface.

Runs the full Figure 6 pipeline per matrix (pattern analysis, portfolio
selection, decomposition, schedule exploration) and reports the selected
configuration's perf-model estimate — exactly what the Figure 12/13
comparison plots for SPASM.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import AcceleratorModel
from repro.core.framework import SpasmCompiler, SpasmProgram
from repro.matrix.coo import COOMatrix


class SpasmModel(AcceleratorModel):
    """SPASM as a comparable platform.

    Parameters
    ----------
    compiler:
        Optional pre-configured :class:`SpasmCompiler` (ablations pass
        compilers with stages disabled).
    **compile_kwargs:
        ``fixed_portfolio`` / ``fixed_tile_size`` / ``fixed_hw_config``
        forwarded to every compile call.
    """

    name = "SPASM"

    def __init__(self, compiler: SpasmCompiler = None, **compile_kwargs):
        self.compiler = compiler or SpasmCompiler()
        self.compile_kwargs = compile_kwargs
        self._cache = {}

    def compile(self, coo: COOMatrix) -> SpasmProgram:
        """Compile (memoized on matrix identity)."""
        key = id(coo)
        if key not in self._cache:
            self._cache[key] = self.compiler.compile(
                coo, **self.compile_kwargs
            )
        return self._cache[key]

    def program(self, coo: COOMatrix) -> SpasmProgram:
        """The compiled program for a matrix."""
        return self.compile(coo)

    def spmv(self, coo: COOMatrix, x: np.ndarray,
             y: Optional[np.ndarray] = None,
             jobs: int = 1) -> np.ndarray:
        """Numerically execute ``y = A @ x + y`` on this platform.

        Runs through the compiled matrix's cached
        :class:`~repro.exec.plan.ExecutionPlan` — compile and plan
        build both amortize across calls via the memoized program.
        """
        program = self.compile(coo)
        plan = (
            program.plan
            if program.plan is not None
            else program.spasm.plan()
        )
        return plan.spmv(x, y=y, jobs=jobs)

    def trace(self, coo: COOMatrix):
        """Per-stage :class:`~repro.pipeline.trace.PipelineTrace` of the
        (memoized) compile — stage timings and notes."""
        return self.compile(coo).trace

    # The platform constants depend on the per-matrix selected bitstream,
    # so the AcceleratorModel attributes become per-call properties.
    def _config(self, coo: COOMatrix):
        return self.compile(coo).hw_config

    def time_s(self, coo: COOMatrix) -> float:
        program = self.compile(coo)
        cycles = program.estimate().total_cycles
        return cycles / program.hw_config.frequency_hz

    def gflops(self, coo: COOMatrix) -> float:
        t = self.time_s(coo)
        return self.flops(coo) / t / 1e9 if t > 0 else 0.0

    def bandwidth_of(self, coo: COOMatrix) -> float:
        """Bandwidth of the selected bitstream (per-matrix)."""
        return self._config(coo).bandwidth

    def peak_gflops_of(self, coo: COOMatrix) -> float:
        """Peak throughput of the selected bitstream (per-matrix)."""
        return self._config(coo).peak_gflops

    def bandwidth_efficiency(self, coo: COOMatrix) -> float:
        return self.gflops(coo) / (self.bandwidth_of(coo) / 1e9)

    def compute_utilization(self, coo: COOMatrix) -> float:
        return self.gflops(coo) / self.peak_gflops_of(coo)

    def bytes_streamed(self, coo: COOMatrix) -> float:
        """HBM traffic of the encoded matrix (A stream + x + y)."""
        program = self.compile(coo)
        spasm = program.spasm
        gc = spasm.global_composition()
        a_bytes = spasm.n_groups * (spasm.k + 1) * 4
        x_bytes = gc.n_tiles * spasm.tile_size * 4
        y_bytes = gc.n_tile_rows * spasm.tile_size * 8
        return a_bytes + x_bytes + y_bytes

    def bandwidth_utilization(self, coo: COOMatrix) -> float:
        t = self.time_s(coo)
        if t <= 0:
            return 0.0
        return self.bytes_streamed(coo) / t / self.bandwidth_of(coo)
