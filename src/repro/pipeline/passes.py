"""The compilation passes of the Figure 6 workflow, made first-class.

Each pass declares the artifacts it ``requires`` and ``provides`` (see
:mod:`repro.pipeline.artifacts`) and runs one paper stage.  The
:class:`PipelineRunner` executes them in order and records a
:class:`~repro.pipeline.trace.StageEvent` per pass.

The default pipeline mirrors the paper:

==============  ======  ==========================================
pass            stage   artifacts produced
==============  ======  ==========================================
analysis        ①       masks, sub_keys, sub_nnz, entry_order,
                        histogram
selection       ②       portfolio, table, selection
decomposition   ③       group_counts
schedule        ④⑤      schedule, tile_size, hw_config
encode          —       spasm
verify          —       verify_report (opt-in)
plan            ⑥ prep  plan (opt-in)
==============  ======  ==========================================
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.format import encode_spasm, groups_per_submatrix
from repro.core.decompose import cached_table
from repro.core.patterns import histogram_from_masks, submatrix_masks
from repro.core.schedule import explore_schedule
from repro.core.selection import select_portfolio
from repro.core.templates import Portfolio
from repro.core.tiling import global_compositions, validate_tile_size
from repro.pipeline.artifacts import ArtifactStore


class PipelineError(RuntimeError):
    """Raised when a pass's declared inputs are unsatisfied."""


class CompilerPass:
    """Base class of all pipeline passes.

    Subclasses declare ``name`` / ``requires`` / ``provides`` and
    implement :meth:`run`.
    """

    name: str = ""
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    #: Provided artifacts that may legitimately be absent after a run
    #: (e.g. ``selection`` under a fixed portfolio).
    optional_provides: Tuple[str, ...] = ()

    def run(self, store: ArtifactStore) -> str:
        """Execute the pass against the store; returns a trace note."""
        raise NotImplementedError


class AnalysisPass(CompilerPass):
    """Step ① — local pattern analysis (Algorithm 2).

    Produces the submatrix occupancy masks, entry counts and the
    entry order grouping the nonzeros by submatrix *once*; downstream
    passes (decomposition, schedule and the encoder) reuse them instead
    of recomputing.  Rejects a ``coo`` holding a duplicate
    coordinate with a ``ValueError`` naming it.
    """

    name = "analysis"
    requires = ("coo",)
    #: The :func:`submatrix_masks` outputs, in its return order.
    _ARRAYS = ("masks", "sub_keys", "sub_nnz", "entry_order")
    provides = _ARRAYS + ("histogram",)

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"pattern size must be positive, got {k}")
        if k * k > 32:
            raise ValueError(
                f"pattern size {k} exceeds the 32-bit mask budget"
            )
        self.k = k

    def run(self, store: ArtifactStore) -> str:
        coo = store.require("coo")
        arrays = submatrix_masks(coo, self.k)
        for name, array in zip(self._ARRAYS, arrays):
            store.put(name, array)
        histogram = histogram_from_masks(arrays[0], self.k)
        store.put("histogram", histogram)
        return (
            f"{histogram.n_distinct} distinct patterns over "
            f"{int(arrays[0].size)} submatrices"
        )


class SelectionPass(CompilerPass):
    """Step ② — template pattern selection (Algorithm 3).

    Covers all three portfolio strategies of the compiler plus the
    fixed-portfolio ablation path (which skips scoring entirely).
    """

    name = "selection"
    requires = ("histogram",)
    provides = ("portfolio", "table", "selection")
    optional_provides = ("selection",)

    def __init__(self, k: int, strategy: str,
                 candidates: Sequence[Portfolio],
                 coverage: float,
                 fixed_portfolio: Optional[Portfolio] = None):
        self.k = k
        self.strategy = strategy
        self.candidates = list(candidates)
        self.coverage = coverage
        self.fixed_portfolio = fixed_portfolio

    def run(self, store: ArtifactStore) -> str:
        histogram = store.require("histogram")
        if self.fixed_portfolio is not None:
            portfolio = self.fixed_portfolio
            store.put("portfolio", portfolio)
            store.put("table", cached_table(portfolio))
            return f"fixed portfolio {portfolio.name} (ablation)"
        if self.strategy == "candidates":
            selection = select_portfolio(
                histogram,
                candidates=self.candidates,
                coverage=self.coverage,
            )
            store.put("portfolio", selection.portfolio)
            store.put("table", selection.table)
            store.put("selection", selection)
            return (
                f"{selection.portfolio.name} won over "
                f"{len(self.candidates)} candidates "
                f"({selection.scored_patterns} patterns scored)"
            )
        from repro.core.dynamic import (
            GreedyPortfolioBuilder,
            select_portfolio_dynamic,
        )

        if self.strategy == "greedy":
            portfolio = GreedyPortfolioBuilder(k=self.k).build(
                histogram
            ).portfolio
        else:  # combined
            portfolio = select_portfolio_dynamic(
                histogram, candidates=self.candidates
            )
        store.put("portfolio", portfolio)
        store.put("table", cached_table(portfolio))
        return f"{portfolio.name} built via {self.strategy} strategy"


class DecompositionPass(CompilerPass):
    """Step ③ — decompose every occurring pattern.

    Tile-size independent: the resulting per-submatrix group counts are
    what Algorithm 4 re-aggregates per tile size.  Reuses the analysis
    masks — no second :func:`submatrix_masks` sweep.
    """

    name = "decomposition"
    requires = ("coo", "table", "masks", "sub_keys")
    provides = ("group_counts",)

    def __init__(self, k: int):
        self.k = k

    def run(self, store: ArtifactStore) -> str:
        counts, __ = groups_per_submatrix(
            store.require("coo"),
            store.require("table"),
            self.k,
            masks=store.require("masks"),
            sub_keys=store.require("sub_keys"),
        )
        store.put("group_counts", counts)
        return f"{int(counts.sum())} template groups"


class SchedulePass(CompilerPass):
    """Steps ④+⑤ — global composition x schedule exploration.

    Builds every tile size's global composition in one nested
    aggregation of the per-submatrix group and entry counts, then sweeps
    (tile size, hardware config) with Algorithm 4, honoring the
    ``fixed_*`` ablation knobs.
    """

    name = "schedule"
    requires = ("coo", "group_counts", "sub_keys", "sub_nnz")
    provides = ("schedule", "tile_size", "hw_config")
    optional_provides = ("schedule",)

    def __init__(self, k: int, tile_sizes: Sequence[int],
                 hw_configs: Sequence[Any], perf_model: Any,
                 fixed_tile_size: Optional[int] = None,
                 fixed_hw_config: Optional[Any] = None):
        self.k = k
        self.tile_sizes = tuple(tile_sizes)
        self.hw_configs = list(hw_configs)
        self.perf_model = perf_model
        self.fixed_tile_size = fixed_tile_size
        self.fixed_hw_config = fixed_hw_config

    def _sweep(self) -> Tuple[Tuple[int, ...], List[Any]]:
        """The effective (tile sizes, hardware configs) grid."""
        hw_sweep = (
            [self.fixed_hw_config]
            if self.fixed_hw_config is not None
            else self.hw_configs
        )
        tile_sweep = (
            (self.fixed_tile_size,)
            if self.fixed_tile_size is not None
            else self.tile_sizes
        )
        return tile_sweep, hw_sweep

    def run(self, store: ArtifactStore) -> str:
        if (
            self.fixed_tile_size is not None
            and self.fixed_hw_config is not None
        ):
            store.put("tile_size", int(self.fixed_tile_size))
            store.put("hw_config", self.fixed_hw_config)
            return "fixed tile size and hardware config (ablation)"

        tile_sweep, hw_sweep = self._sweep()
        compositions = global_compositions(
            store.require("coo").shape,
            store.require("group_counts"),
            store.require("sub_keys"),
            store.require("sub_nnz"),
            tile_sweep,
            self.k,
        )

        def composition_factory(tile_size: int):
            # Only sizes validate_tile_size rejects are absent: re-raise
            # its TilingError so Algorithm 4 skips them.
            if tile_size not in compositions:
                validate_tile_size(tile_size, self.k)
            return compositions[tile_size]

        schedule = explore_schedule(
            composition_factory,
            hw_sweep,
            self.perf_model,
            tile_sweep,
        )
        store.put("schedule", schedule)
        store.put("tile_size", int(schedule.best_tile_size))
        store.put("hw_config", schedule.best_hw_config)
        return (
            f"best {schedule.best.label} of {len(schedule.points)} "
            "evaluated points"
        )


class EncodePass(CompilerPass):
    """Final encoding of the matrix at the selected configuration.

    Persistence of the encoded artifact is the job of
    :mod:`repro.core.serialize` (``save_spasm``/``load_spasm``).
    """

    name = "encode"
    requires = (
        "coo", "portfolio", "tile_size", "table", "masks", "sub_keys",
        "sub_nnz", "entry_order",
    )
    provides = ("spasm",)

    def __init__(self, hazard_aware: bool = False):
        self.hazard_aware = hazard_aware

    def run(self, store: ArtifactStore) -> str:
        spasm = encode_spasm(
            store.require("coo"),
            store.require("portfolio"),
            store.require("tile_size"),
            store.require("table"),
            masks=store.require("masks"),
            sub_keys=store.require("sub_keys"),
            sub_nnz=store.require("sub_nnz"),
            entry_order=store.require("entry_order"),
        )
        note = ""
        if self.hazard_aware:
            from repro.hw.hazards import hazard_aware_reorder

            spasm = hazard_aware_reorder(spasm)
            note = ", hazard-aware reorder applied"
        store.put("spasm", spasm)
        return (
            f"{spasm.n_groups} groups, padding rate "
            f"{spasm.padding_rate:.2%}{note}"
        )


class PlanPass(CompilerPass):
    """Opt-in step ⑥ preparation — compile the numeric execution plan.

    Builds the encoded matrix's
    :class:`~repro.exec.plan.ExecutionPlan` (expand once, drop padding,
    sort by output row into CSR) so the program
    ships ready for the CSR kernel.
    """

    name = "plan"
    requires = ("spasm",)
    provides = ("plan",)

    def run(self, store: ArtifactStore) -> str:
        spasm = store.require("spasm")
        # Builds once and caches the plan on the matrix, so the first
        # ``spasm.spmv`` reuses it.
        plan = spasm.plan()
        store.put("plan", plan)
        return plan.describe()


class VerifyPass(CompilerPass):
    """Opt-in static verification of the encoded stream.

    Mounts :mod:`repro.verify` as a pipeline stage: every error-severity
    invariant violation raises
    :class:`~repro.core.format.FormatError`; the full diagnostic report
    is stored as the ``verify_report`` artifact.
    """

    name = "verify"
    requires = ("spasm", "coo")
    provides = ("verify_report",)

    def run(self, store: ArtifactStore) -> str:
        from repro.core.format import FormatError
        from repro.verify.runner import verify_spasm

        report = verify_spasm(
            store.require("spasm"), source=store.require("coo")
        )
        report.raise_if_errors(FormatError)
        store.put("verify_report", report)
        return (
            f"{len(report.diagnostics)} diagnostics, "
            f"{len(report.warnings)} warnings, 0 errors"
        )
