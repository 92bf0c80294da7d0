"""Step ⑤ — workload schedule exploration (paper Algorithm 4).

SPASM is synthesized in several hardware versions (bitstreams) that trade
PE-group count against x-vector bandwidth, and the format supports a
range of tile sizes.  Algorithm 4 jointly sweeps both: each tile size
yields a new global composition (step ④ is re-entered), every hardware
configuration is scored with the analytic performance model, and the
cheapest (fewest estimated cycles) pair wins.
"""

from __future__ import annotations

import dataclasses

from repro.core.tiling import GlobalComposition, TilingError

#: Paper-representative tile size sweep (powers of two within the 13-bit
#: submatrix index budget).
DEFAULT_TILE_SIZES = (256, 512, 1024, 2048, 4096, 8192)


@dataclasses.dataclass(frozen=True)
class SchedulePoint:
    """One evaluated (tile size, hardware configuration) pair."""

    tile_size: int
    hw_config: object
    cycles: float
    composition: GlobalComposition

    @property
    def label(self) -> str:
        """Human-readable point label."""
        name = getattr(self.hw_config, "name", str(self.hw_config))
        return f"{name} @ tile={self.tile_size}"


@dataclasses.dataclass(frozen=True)
class ScheduleResult:
    """Outcome of the joint exploration.

    Attributes
    ----------
    best:
        The winning :class:`SchedulePoint`.
    points:
        Every evaluated point (for ablation reporting).
    """

    best: SchedulePoint
    points: tuple

    @property
    def best_tile_size(self) -> int:
        """Tile size of the winning point."""
        return self.best.tile_size

    @property
    def best_hw_config(self):
        """Hardware configuration of the winning point."""
        return self.best.hw_config

    @property
    def best_cycles(self) -> float:
        """Estimated cycles of the winning point."""
        return self.best.cycles

    def improvement_over(self, tile_size: int, hw_config) -> float:
        """Speedup of the best point over a fixed baseline point.

        Used by the Figure 14 ablation (baseline: SPASM_4_1, tile 1024).
        """
        for point in self.points:
            if point.tile_size == tile_size and point.hw_config == hw_config:
                return point.cycles / self.best.cycles
        raise KeyError(
            f"baseline point (tile={tile_size}, {hw_config}) was not "
            "part of the exploration"
        )


def explore_schedule(composition_factory, hw_configs, perf_model,
                     tile_sizes=DEFAULT_TILE_SIZES) -> ScheduleResult:
    """Paper Algorithm 4: joint tile-size x hardware-config sweep.

    The sweep is serial, in ``tile_sizes`` x ``hw_configs`` order, and
    the strict-< minimum keeps the first of equally cheap points.

    Parameters
    ----------
    composition_factory:
        Callable ``tile_size -> GlobalComposition`` (step ④ re-entry;
        the pipeline serves every size from one nested
        :func:`repro.core.tiling.global_compositions` aggregation).
        Tile sizes it rejects with
        :class:`~repro.core.tiling.TilingError` are skipped.
    hw_configs:
        Iterable of hardware configurations (opaque to this module;
        the perf model interprets them).
    perf_model:
        Callable ``(composition, hw_config, tile_size) -> cycles``.
    tile_sizes:
        Tile sizes to sweep.
    """
    hw_configs = list(hw_configs)
    if not hw_configs:
        raise ValueError("no hardware configurations supplied")
    points = []
    for tile_size in tile_sizes:
        try:
            composition = composition_factory(tile_size)
        except TilingError:
            continue
        points.extend(
            SchedulePoint(
                tile_size=tile_size,
                hw_config=hw_config,
                cycles=float(perf_model(composition, hw_config, tile_size)),
                composition=composition,
            )
            for hw_config in hw_configs
        )
    best = None
    for point in points:
        if best is None or point.cycles < best.cycles:
            best = point
    if best is None:
        raise ValueError(
            "no (tile size, hw config) point could be evaluated; "
            "check the tile size sweep against the matrix shape"
        )
    return ScheduleResult(best=best, points=tuple(points))
