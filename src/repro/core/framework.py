"""The end-to-end SPASM framework (paper Figure 6).

:class:`SpasmCompiler` is a thin facade over the pass-based pipeline in
:mod:`repro.pipeline`: ① local pattern analysis, ② template pattern
selection, ③ local pattern decomposition, ④ global composition analysis
and ⑤ workload schedule exploration run as explicit passes exchanging
typed artifacts, producing a :class:`SpasmProgram` ready for hardware
execution (step ⑥, :mod:`repro.hw`).

Every compile carries a structured
:class:`~repro.pipeline.trace.PipelineTrace` (per-stage wall time,
artifact sizes, bottleneck notes); the Table VIII style
:class:`PreprocessReport` is a view over that trace.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.format import SpasmMatrix
from repro.core.patterns import PatternHistogram
from repro.core.schedule import DEFAULT_TILE_SIZES, ScheduleResult
from repro.core.selection import SelectionResult
from repro.core.templates import Portfolio, candidate_portfolios
from repro.exec.plan import ExecutionPlan
from repro.hw.configs import HwConfig
from repro.matrix.coo import COOMatrix
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.passes import (
    AnalysisPass,
    CompilerPass,
    DecompositionPass,
    EncodePass,
    PlanPass,
    SchedulePass,
    SelectionPass,
    VerifyPass,
)
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.trace import PipelineTrace


@dataclasses.dataclass(frozen=True)
class PreprocessReport:
    """Per-stage preprocessing wall time, Table VIII style.

    Attributes map to the paper's circled stages (milliseconds):
    ``analysis_ms`` ①, ``selection_ms`` ②, ``decomposition_ms`` ③,
    ``schedule_ms`` ④⑤ (the paper reports the two jointly).

    This is a *view* over the pipeline trace — construct it with
    :meth:`from_trace`; the full per-stage records (artifact sizes,
    notes) live on
    :attr:`SpasmProgram.trace`.
    """

    analysis_ms: float
    selection_ms: float
    decomposition_ms: float
    schedule_ms: float

    @classmethod
    def from_trace(cls, trace: PipelineTrace) -> "PreprocessReport":
        """Project a pipeline trace onto the four Table VIII columns."""
        return cls(
            analysis_ms=trace.stage_ms("analysis"),
            selection_ms=trace.stage_ms("selection"),
            decomposition_ms=trace.stage_ms("decomposition"),
            schedule_ms=trace.stage_ms("schedule"),
        )

    @property
    def total_ms(self) -> float:
        """Total preprocessing time."""
        return (
            self.analysis_ms
            + self.selection_ms
            + self.decomposition_ms
            + self.schedule_ms
        )

    def row(self, name: str) -> str:
        """One formatted Table VIII row."""
        return (
            f"{name:<14s} {self.analysis_ms:9.1f} {self.selection_ms:9.1f} "
            f"{self.decomposition_ms:9.1f} {self.schedule_ms:9.1f}"
        )


@dataclasses.dataclass(frozen=True)
class SpasmProgram:
    """A fully compiled SPASM workload.

    Attributes
    ----------
    spasm:
        The matrix encoded at the selected tile size and portfolio.
    hw_config:
        The selected hardware version.
    histogram:
        Step ① output.
    selection:
        Step ② output (``None`` when a fixed portfolio was forced).
    schedule:
        Step ⑤ output (``None`` when tile size and config were forced).
    report:
        Stage timing report (a view over :attr:`trace`).
    trace:
        The full per-stage pipeline trace of this compile.
    plan:
        The compiled :class:`~repro.exec.plan.ExecutionPlan`
        (``None`` unless the compiler was built with
        ``build_plan=True``; the matrix still compiles one lazily on
        first :meth:`~repro.core.format.SpasmMatrix.spmv`).
    """

    spasm: SpasmMatrix
    hw_config: HwConfig
    histogram: PatternHistogram
    selection: Optional[SelectionResult]
    schedule: Optional[ScheduleResult]
    report: PreprocessReport
    trace: Optional[PipelineTrace] = None
    plan: Optional[ExecutionPlan] = None

    @property
    def portfolio(self) -> Portfolio:
        """The portfolio the encoding used."""
        return self.spasm.portfolio

    @property
    def tile_size(self) -> int:
        """The selected tile size."""
        return self.spasm.tile_size

    def estimate(self):
        """Perf-model estimate for the compiled configuration.

        Returns the :class:`repro.hw.perf_model.PerfBreakdown`.
        """
        from repro.hw.perf_model import perf_breakdown

        return perf_breakdown(
            self.spasm.global_composition(), self.hw_config, self.tile_size
        )

    def estimated_gflops(self) -> float:
        """Paper throughput metric under the perf model."""
        cycles = self.estimate().total_cycles
        time_s = cycles / self.hw_config.frequency_hz
        flops = 2 * self.spasm.source_nnz + self.spasm.shape[0]
        return flops / time_s / 1e9 if time_s else 0.0


class SpasmCompiler:
    """Drives the full preprocessing workflow of Figure 6.

    Parameters
    ----------
    candidates:
        Candidate portfolios for step ② (default: the Table V ten).
    hw_configs:
        Hardware versions for step ⑤ (default: Table IV's three).
    tile_sizes:
        Tile size sweep for step ⑤.
    k:
        Local pattern size.
    selection_coverage:
        Step ② scores only the smallest top-n pattern subset reaching
        this frequency mass (the paper's preprocessing shortcut).
    perf_model:
        Override for the Algorithm 4 cost callable (testing hook).
    portfolio_strategy:
        ``"candidates"`` (paper Algorithm 3, default), ``"greedy"``
        (custom build from the template universe,
        :mod:`repro.core.dynamic`) or ``"combined"`` (best of both).
    hazard_aware:
        Reorder each tile's group stream to space out partial-sum
        reuse (:func:`repro.hw.hazards.hazard_aware_reorder`).
    verify:
        Mount :mod:`repro.verify` as a final pipeline pass: each
        compile statically checks the encoded stream and raises
        :class:`~repro.core.format.FormatError` on any violation.
    build_plan:
        Append the :class:`~repro.pipeline.passes.PlanPass`: each
        compile also builds the numeric
        :class:`~repro.exec.plan.ExecutionPlan`, available as
        :attr:`SpasmProgram.plan` and cached on the encoded matrix, so
        its first ``spmv`` builds nothing.
    """

    PORTFOLIO_STRATEGIES = ("candidates", "greedy", "combined")

    def __init__(self, candidates=None, hw_configs=None,
                 tile_sizes=DEFAULT_TILE_SIZES, k: int = 4,
                 selection_coverage: float = 0.95, perf_model=None,
                 portfolio_strategy: str = "candidates",
                 hazard_aware: bool = False,
                 verify: bool = False,
                 build_plan: bool = False):
        self.k = k
        if portfolio_strategy not in self.PORTFOLIO_STRATEGIES:
            raise ValueError(
                f"unknown portfolio strategy {portfolio_strategy!r}; "
                f"choose from {self.PORTFOLIO_STRATEGIES}"
            )
        self.portfolio_strategy = portfolio_strategy
        self.hazard_aware = hazard_aware
        self.verify = verify
        self.build_plan = build_plan
        self.candidates = (
            list(candidates) if candidates is not None
            else candidate_portfolios(k)
        )
        if hw_configs is None:
            from repro.hw.configs import DEFAULT_CONFIGS

            hw_configs = DEFAULT_CONFIGS
        self.hw_configs = list(hw_configs)
        self.tile_sizes = tuple(tile_sizes)
        self.selection_coverage = selection_coverage
        if perf_model is None:
            from repro.hw.perf_model import perf_model as default_model

            perf_model = default_model
        self.perf_model = perf_model

    def build_passes(self, fixed_portfolio: Optional[Portfolio] = None,
                     fixed_tile_size: Optional[int] = None,
                     fixed_hw_config: Optional[HwConfig] = None,
                     ) -> List[CompilerPass]:
        """The pass sequence one compile executes.

        Exposed so callers can inspect, extend or re-run the pipeline
        directly through :class:`~repro.pipeline.runner.PipelineRunner`.
        """
        passes: List[CompilerPass] = [
            AnalysisPass(self.k),
            SelectionPass(
                self.k,
                self.portfolio_strategy,
                self.candidates,
                self.selection_coverage,
                fixed_portfolio=fixed_portfolio,
            ),
            DecompositionPass(self.k),
            SchedulePass(
                self.k,
                self.tile_sizes,
                self.hw_configs,
                self.perf_model,
                fixed_tile_size=fixed_tile_size,
                fixed_hw_config=fixed_hw_config,
            ),
            EncodePass(hazard_aware=self.hazard_aware),
        ]
        if self.verify:
            passes.append(VerifyPass())
        if self.build_plan:
            passes.append(PlanPass())
        return passes

    def compile(self, coo: COOMatrix,
                fixed_portfolio: Optional[Portfolio] = None,
                fixed_tile_size: Optional[int] = None,
                fixed_hw_config: Optional[HwConfig] = None,
                ) -> SpasmProgram:
        """Run steps ①-⑤ and encode the matrix.

        The ``fixed_*`` arguments disable individual optimization stages
        for the Figure 14 ablation: a fixed portfolio skips step ②, and a
        fixed tile size plus hardware config skips step ⑤.
        """
        if not isinstance(coo, COOMatrix):
            raise TypeError("SpasmCompiler.compile expects a COOMatrix")

        store = ArtifactStore()
        store.put("coo", coo)
        trace = PipelineRunner().run(
            self.build_passes(
                fixed_portfolio=fixed_portfolio,
                fixed_tile_size=fixed_tile_size,
                fixed_hw_config=fixed_hw_config,
            ),
            store,
        )
        return SpasmProgram(
            spasm=store.require("spasm"),
            hw_config=store.require("hw_config"),
            histogram=store.require("histogram"),
            selection=store.get("selection"),
            schedule=store.get("schedule"),
            report=PreprocessReport.from_trace(trace),
            trace=trace,
            plan=store.get("plan"),
        )
