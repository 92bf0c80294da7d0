"""The end-to-end SPASM framework (paper Figure 6).

:meth:`SpasmCompiler.compile` runs the workflow's stages in their fixed
order as direct calls: ① local pattern analysis, ② template pattern
selection, ③ local pattern decomposition, ④⑤ global composition
analysis and workload schedule exploration, then the encoder, producing
a :class:`SpasmProgram` ready for hardware execution (step ⑥,
:mod:`repro.hw`).

Every compile carries a structured
:class:`~repro.pipeline.trace.PipelineTrace`: one
:class:`~repro.pipeline.trace.StageEvent` (wall time and a summary
note) per stage, which is where Table VIII's per-stage times come from
(``trace.stage_ms(name)``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from repro.core.decompose import DecompositionTable, cached_table
from repro.core.format import (
    FormatError,
    SpasmMatrix,
    encode_spasm,
    groups_per_submatrix,
)
from repro.core.patterns import (
    PatternHistogram,
    histogram_from_masks,
    submatrix_masks,
)
from repro.core.schedule import (
    DEFAULT_TILE_SIZES,
    ScheduleResult,
    explore_schedule,
)
from repro.core.selection import SelectionResult, select_portfolio
from repro.core.templates import Portfolio, candidate_portfolios
from repro.core.tiling import global_compositions, validate_tile_size
from repro.exec.plan import ExecutionPlan
from repro.hw.configs import HwConfig
from repro.matrix.coo import COOMatrix
from repro.pipeline.trace import PipelineTrace, StageEvent


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
        Step ② output (``None`` when a fixed portfolio was forced or a
        greedy/combined strategy built the portfolio).
    schedule:
        Step ⑤ output (``None`` when tile size and config were forced).
    trace:
        The per-stage trace of this compile.
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
    trace: PipelineTrace
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


def _lap(events: List[StageEvent], name: str, started: float,
         note: str) -> float:
    """Record the stage that ran since ``started``; returns the time
    the next stage starts at."""
    now = time.perf_counter()
    events.append(StageEvent(name, (now - started) * 1e3, note))
    return now


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
        End each compile with :mod:`repro.verify`: the encoded stream
        is statically checked and any violation raises
        :class:`~repro.core.format.FormatError` (a ``verify`` stage).
    build_plan:
        End each compile by building the numeric
        :class:`~repro.exec.plan.ExecutionPlan` (a ``plan`` stage),
        available as :attr:`SpasmProgram.plan` and cached on the
        encoded matrix, so its first ``spmv`` builds nothing.
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

    def compile(self, coo: COOMatrix,
                fixed_portfolio: Optional[Portfolio] = None,
                fixed_tile_size: Optional[int] = None,
                fixed_hw_config: Optional[HwConfig] = None,
                ) -> SpasmProgram:
        """Run steps ①-⑤ and encode the matrix.

        The ``fixed_*`` arguments disable individual optimization stages
        for the Figure 14 ablation: a fixed portfolio skips step ②, and a
        fixed tile size plus hardware config skips step ⑤.  The step ①
        scan runs once; its masks, keys, counts and entry order feed the
        decomposition, the schedule and the encoder.  ``coo`` must hold
        each coordinate at most once (a duplicate raises ``ValueError``
        naming it).
        """
        if not isinstance(coo, COOMatrix):
            raise TypeError("SpasmCompiler.compile expects a COOMatrix")
        k = self.k
        if k <= 0:
            raise ValueError(f"pattern size must be positive, got {k}")
        if k * k > 32:
            raise ValueError(
                f"pattern size {k} exceeds the 32-bit mask budget"
            )
        events: List[StageEvent] = []
        t = time.perf_counter()

        masks, sub_keys, sub_nnz, entry_order = submatrix_masks(coo, k)
        histogram = histogram_from_masks(masks, k)
        t = _lap(events, "analysis", t,
                 f"{histogram.n_distinct} distinct patterns over "
                 f"{int(masks.size)} submatrices")

        portfolio, table, selection, note = self._select(
            histogram, fixed_portfolio)
        t = _lap(events, "selection", t, note)

        group_counts, __ = groups_per_submatrix(
            coo, table, k, masks=masks, sub_keys=sub_keys)
        t = _lap(events, "decomposition", t,
                 f"{int(group_counts.sum())} template groups")

        if fixed_tile_size is not None and fixed_hw_config is not None:
            tile_size, hw_config = int(fixed_tile_size), fixed_hw_config
            schedule = None
            note = "fixed tile size and hardware config (ablation)"
        else:
            schedule = self._explore(
                coo.shape, group_counts, sub_keys, sub_nnz,
                fixed_tile_size, fixed_hw_config)
            tile_size = int(schedule.best_tile_size)
            hw_config = schedule.best_hw_config
            note = (f"best {schedule.best.label} of "
                    f"{len(schedule.points)} evaluated points")
        t = _lap(events, "schedule", t, note)

        spasm = encode_spasm(
            coo, portfolio, tile_size, table, masks=masks,
            sub_keys=sub_keys, sub_nnz=sub_nnz, entry_order=entry_order,
        )
        reordered = ""
        if self.hazard_aware:
            from repro.hw.hazards import hazard_aware_reorder

            spasm = hazard_aware_reorder(spasm)
            reordered = ", hazard-aware reorder applied"
        t = _lap(events, "encode", t,
                 f"{spasm.n_groups} groups, padding rate "
                 f"{spasm.padding_rate:.2%}{reordered}")

        if self.verify:
            from repro.verify.runner import verify_spasm

            report = verify_spasm(spasm, source=coo)
            report.raise_if_errors(FormatError)
            t = _lap(events, "verify", t,
                     f"{len(report.diagnostics)} diagnostics, "
                     f"{len(report.warnings)} warnings, 0 errors")

        plan = None
        if self.build_plan:
            # Builds once and caches the plan on the matrix, so the
            # first ``spasm.spmv`` reuses it.
            plan = spasm.plan()
            _lap(events, "plan", t, plan.describe())

        return SpasmProgram(
            spasm=spasm,
            hw_config=hw_config,
            histogram=histogram,
            selection=selection,
            schedule=schedule,
            trace=PipelineTrace(events=tuple(events)),
            plan=plan,
        )

    def _select(self, histogram: PatternHistogram,
                fixed_portfolio: Optional[Portfolio],
                ) -> Tuple[Portfolio, DecompositionTable,
                           Optional[SelectionResult], str]:
        """Step ② (Algorithm 3, a greedy/combined build, or the fixed
        ablation portfolio): ``(portfolio, table, selection, note)``."""
        if fixed_portfolio is not None:
            return (fixed_portfolio, cached_table(fixed_portfolio), None,
                    f"fixed portfolio {fixed_portfolio.name} (ablation)")
        if self.portfolio_strategy == "candidates":
            selection = select_portfolio(
                histogram,
                candidates=self.candidates,
                coverage=self.selection_coverage,
            )
            return (selection.portfolio, selection.table, selection,
                    f"{selection.portfolio.name} won over "
                    f"{len(self.candidates)} candidates "
                    f"({selection.scored_patterns} patterns scored)")
        from repro.core.dynamic import (
            GreedyPortfolioBuilder,
            select_portfolio_dynamic,
        )

        if self.portfolio_strategy == "greedy":
            portfolio = GreedyPortfolioBuilder(k=self.k).build(
                histogram
            ).portfolio
        else:  # combined
            portfolio = select_portfolio_dynamic(
                histogram, candidates=self.candidates
            )
        return (portfolio, cached_table(portfolio), None,
                f"{portfolio.name} built via {self.portfolio_strategy} "
                "strategy")

    def _explore(self, shape, group_counts, sub_keys, sub_nnz,
                 fixed_tile_size: Optional[int],
                 fixed_hw_config: Optional[HwConfig]) -> ScheduleResult:
        """Steps ④+⑤: every tile size's global composition in one
        nested aggregation of the per-submatrix counts, then the
        Algorithm 4 sweep over (tile size, hardware config), either of
        which a ``fixed_*`` knob may pin."""
        hw_sweep = (
            [fixed_hw_config] if fixed_hw_config is not None
            else self.hw_configs
        )
        tile_sweep = (
            (fixed_tile_size,) if fixed_tile_size is not None
            else self.tile_sizes
        )
        compositions = global_compositions(
            shape, group_counts, sub_keys, sub_nnz, tile_sweep, self.k)

        def composition_factory(tile_size: int):
            # Only sizes validate_tile_size rejects are absent: re-raise
            # its TilingError so Algorithm 4 skips them.
            if tile_size not in compositions:
                validate_tile_size(tile_size, self.k)
            return compositions[tile_size]

        return explore_schedule(
            composition_factory, hw_sweep, self.perf_model, tile_sweep)
