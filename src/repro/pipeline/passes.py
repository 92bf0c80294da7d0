"""The compilation passes of the Figure 6 workflow, made first-class.

Each pass declares the artifacts it ``requires`` and ``provides`` (see
:mod:`repro.pipeline.artifacts`), runs one paper stage, and optionally
participates in content-addressed caching by implementing the
``to_cache`` / ``from_cache`` pair.  The :class:`PipelineRunner`
executes them in order, records a :class:`~repro.pipeline.trace.StageEvent`
per pass, and consults the cache.

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

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.format import encode_spasm, groups_per_submatrix
from repro.core.decompose import cached_table
from repro.core.patterns import histogram_from_masks, submatrix_masks
from repro.core.schedule import explore_schedule
from repro.core.selection import select_portfolio
from repro.core.templates import Portfolio
from repro.core.tiling import global_compositions, validate_tile_size
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.cache import (
    CacheEntry,
    callable_id,
    fingerprint,
    hw_config_state,
    portfolio_from_state,
    portfolio_state,
)


class PipelineError(RuntimeError):
    """Raised when a pass's declared inputs are unsatisfied."""


class CompilerPass:
    """Base class of all pipeline passes.

    Subclasses declare ``name`` / ``requires`` / ``provides`` and
    implement :meth:`run`.  Cacheable passes additionally set
    ``cacheable`` and implement the serialization pair.
    """

    name: str = ""
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    #: Provided artifacts that may legitimately be absent after a run
    #: (e.g. ``selection`` under a fixed portfolio).
    optional_provides: Tuple[str, ...] = ()
    cacheable: bool = False

    def config_fingerprint(self) -> str:
        """Digest of the knobs that change this pass's output."""
        return fingerprint({})

    def run(self, store: ArtifactStore) -> str:
        """Execute the pass against the store; returns a trace note."""
        raise NotImplementedError

    def to_cache(
        self, store: ArtifactStore
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Serialize the produced artifacts to (arrays, JSON meta)."""
        raise NotImplementedError

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        """Restore artifacts from a cache entry.

        Returns ``False`` when the entry cannot be applied (the runner
        then treats it as a miss and recomputes).
        """
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
    cacheable = True

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"pattern size must be positive, got {k}")
        if k * k > 32:
            raise ValueError(
                f"pattern size {k} exceeds the 32-bit mask budget"
            )
        self.k = k

    def config_fingerprint(self) -> str:
        return fingerprint({"k": self.k})

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

    def to_cache(self, store: ArtifactStore):
        return (
            {name: store.require(name) for name in self._ARRAYS},
            {"k": self.k},
        )

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        # An entry written before ``entry_order`` existed is a miss.
        if any(name not in entry.arrays for name in self._ARRAYS):
            return False
        for name in self._ARRAYS:
            store.put(name, entry.arrays[name].astype(np.int64))
        store.put("histogram",
                  histogram_from_masks(store.require("masks"), self.k))
        return True


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
        self.cacheable = fixed_portfolio is None

    def config_fingerprint(self) -> str:
        return fingerprint(
            {
                "k": self.k,
                "strategy": self.strategy,
                "coverage": self.coverage,
                "candidates": [
                    portfolio_state(c) for c in self.candidates
                ],
                "fixed": (
                    portfolio_state(self.fixed_portfolio)
                    if self.fixed_portfolio is not None
                    else None
                ),
            }
        )

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

    def to_cache(self, store: ArtifactStore):
        selection = store.get("selection")
        meta: Dict[str, Any] = {
            "portfolio": portfolio_state(store.require("portfolio")),
            "selection": None,
        }
        if selection is not None:
            meta["selection"] = {
                "paddings": selection.paddings,
                "scored_patterns": selection.scored_patterns,
            }
        return {}, meta

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        state = entry.meta.get("portfolio")
        if not state:
            return False
        try:
            portfolio = portfolio_from_state(state)
        except (KeyError, ValueError, TypeError):
            return False
        table = cached_table(portfolio)
        store.put("portfolio", portfolio)
        store.put("table", table)
        sel_meta = entry.meta.get("selection")
        if sel_meta is not None:
            from repro.core.selection import SelectionResult

            store.put(
                "selection",
                SelectionResult(
                    portfolio=portfolio,
                    table=table,
                    paddings={
                        str(name): float(value)
                        for name, value in sel_meta["paddings"].items()
                    },
                    scored_patterns=int(sel_meta["scored_patterns"]),
                ),
            )
        return True


class DecompositionPass(CompilerPass):
    """Step ③ — decompose every occurring pattern.

    Tile-size independent: the resulting per-submatrix group counts are
    what Algorithm 4 re-aggregates per tile size.  Reuses the analysis
    masks — no second :func:`submatrix_masks` sweep.
    """

    name = "decomposition"
    requires = ("coo", "table", "masks", "sub_keys")
    provides = ("group_counts",)
    cacheable = True

    def __init__(self, k: int):
        self.k = k

    def config_fingerprint(self) -> str:
        return fingerprint({"k": self.k})

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

    def to_cache(self, store: ArtifactStore):
        return {"group_counts": store.require("group_counts")}, {}

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        if "group_counts" not in entry.arrays:
            return False
        counts = entry.arrays["group_counts"].astype(np.int64)
        if counts.shape != store.require("sub_keys").shape:
            return False
        store.put("group_counts", counts)
        return True


class SchedulePass(CompilerPass):
    """Steps ④+⑤ — global composition x schedule exploration.

    Builds every tile size's global composition in one nested
    aggregation of the per-submatrix group and entry counts, then sweeps
    (tile size, hardware config) with Algorithm 4, honoring the
    ``fixed_*`` ablation knobs.  Cache entries persist the evaluated
    grid (cycles per point) and the winning pair; on a hit the per-point
    :class:`~repro.core.tiling.GlobalComposition` objects are *not*
    re-materialized (``point.composition is None``) — the encoder never
    needs them.
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
        # A fully pinned point needs no exploration and no cache.
        self.cacheable = not (
            fixed_tile_size is not None and fixed_hw_config is not None
        )

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

    def config_fingerprint(self) -> str:
        tile_sweep, hw_sweep = self._sweep()
        return fingerprint(
            {
                "k": self.k,
                "tile_sizes": list(tile_sweep),
                "hw": [hw_config_state(h) for h in hw_sweep],
                "perf_model": callable_id(self.perf_model),
            }
        )

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

    def to_cache(self, store: ArtifactStore):
        from repro.core.schedule import ScheduleResult

        schedule: ScheduleResult = store.require("schedule")
        points = schedule.points
        best_index = points.index(schedule.best)
        arrays = {
            "point_tiles": np.array(
                [p.tile_size for p in points], dtype=np.int64
            ),
            "point_cycles": np.array(
                [p.cycles for p in points], dtype=np.float64
            ),
        }
        meta = {
            "point_hw": [
                getattr(p.hw_config, "name", str(p.hw_config))
                for p in points
            ],
            "best_index": best_index,
        }
        return arrays, meta

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        from repro.core.schedule import SchedulePoint, ScheduleResult

        try:
            tiles = entry.arrays["point_tiles"]
            cycles = entry.arrays["point_cycles"]
            hw_names = entry.meta["point_hw"]
            best_index = int(entry.meta["best_index"])
        except KeyError:
            return False
        __, hw_sweep = self._sweep()
        by_name = {
            getattr(h, "name", str(h)): h for h in hw_sweep
        }
        if (
            tiles.shape != cycles.shape
            or len(hw_names) != tiles.size
            or not 0 <= best_index < tiles.size
            or any(name not in by_name for name in hw_names)
        ):
            return False
        points = tuple(
            SchedulePoint(
                tile_size=int(tiles[i]),
                hw_config=by_name[hw_names[i]],
                cycles=float(cycles[i]),
                composition=None,
            )
            for i in range(tiles.size)
        )
        schedule = ScheduleResult(best=points[best_index], points=points)
        store.put("schedule", schedule)
        store.put("tile_size", int(schedule.best_tile_size))
        store.put("hw_config", schedule.best_hw_config)
        return True


class EncodePass(CompilerPass):
    """Final encoding of the matrix at the selected configuration.

    Not cacheable: persistence of the encoded artifact is the job of
    :mod:`repro.core.serialize` (``save_spasm``/``load_spasm``), and the
    hazard-aware reorder must see the freshly encoded stream.
    """

    name = "encode"
    requires = (
        "coo", "portfolio", "tile_size", "table", "masks", "sub_keys",
        "sub_nnz", "entry_order",
    )
    provides = ("spasm",)

    def __init__(self, hazard_aware: bool = False):
        self.hazard_aware = hazard_aware

    def config_fingerprint(self) -> str:
        return fingerprint({"hazard_aware": self.hazard_aware})

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
    ships ready for the CSR kernel.  Cache entries are keyed through
    the normal chain key and additionally carry the stream digest; a
    stale entry (any stored array changed) is rejected and recompiled.
    """

    name = "plan"
    requires = ("spasm",)
    provides = ("plan",)
    cacheable = True

    def run(self, store: ArtifactStore) -> str:
        spasm = store.require("spasm")
        # Builds once and caches the plan on the matrix, so the first
        # ``spasm.spmv`` reuses it.
        plan = spasm.plan()
        store.put("plan", plan)
        return plan.describe()

    def to_cache(self, store: ArtifactStore):
        return store.require("plan").to_entry()

    def from_cache(self, store: ArtifactStore,
                   entry: CacheEntry) -> bool:
        from repro.exec.plan import ExecutionPlan, stream_digest

        spasm = store.require("spasm")
        try:
            plan = ExecutionPlan.from_entry(
                entry, stream_digest(spasm), spasm.shape
            )
        except ValueError:
            return False
        # Cached on the matrix as run() does: the first spmv is free.
        spasm._plan = plan
        store.put("plan", plan)
        return True


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
