"""Step ④ — global composition analysis (paper Sections III and IV-C).

The second tiling level groups k-by-k submatrices into square tiles of
``tile_size`` matrix elements.  The *global composition* is the COO list
of non-empty tiles together with their workload (template groups and
non-zeros), which is what the workload scheduler and the performance
model consume: the distribution of groups across tiles determines PE load
balance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.bitmask import DEFAULT_K
from repro.core.encoding import MAX_TILE_SIZE
from repro.core.patterns import first_of_run


class TilingError(ValueError):
    """Raised for invalid tile size choices."""


def validate_tile_size(tile_size: int, k: int = DEFAULT_K) -> int:
    """Check a tile size against the format constraints."""
    tile_size = int(tile_size)
    if tile_size < k or tile_size % k:
        raise TilingError(
            f"tile size must be a positive multiple of k={k}, "
            f"got {tile_size}"
        )
    if tile_size > MAX_TILE_SIZE:
        raise TilingError(
            f"tile size {tile_size} exceeds the 13-bit submatrix index "
            f"budget (max {MAX_TILE_SIZE})"
        )
    return tile_size


@dataclasses.dataclass(frozen=True)
class GlobalComposition:
    """COO-of-tiles view of a matrix at a given tile size.

    Tiles are listed in stream (row-major) order: ``tile_rows`` changes
    slowest, matching the accelerator's partial-sum-friendly traversal.

    Attributes
    ----------
    shape:
        Logical matrix shape.
    k:
        Local pattern size.
    tile_size:
        Tile edge length in matrix elements.
    tile_rows, tile_cols:
        Coordinates of each non-empty tile.
    groups_per_tile:
        Number of template groups (VALU operations) in each tile.
    nnz_per_tile:
        Number of matrix non-zeros in each tile.
    """

    shape: tuple
    k: int
    tile_size: int
    tile_rows: np.ndarray
    tile_cols: np.ndarray
    groups_per_tile: np.ndarray
    nnz_per_tile: np.ndarray

    @property
    def n_tiles(self) -> int:
        """Number of non-empty tiles."""
        return int(self.tile_rows.size)

    @property
    def n_tile_rows(self) -> int:
        """Number of tile rows spanned by the matrix."""
        return -(-self.shape[0] // self.tile_size)

    @property
    def n_tile_cols(self) -> int:
        """Number of tile columns spanned by the matrix."""
        return -(-self.shape[1] // self.tile_size)

    @property
    def total_groups(self) -> int:
        """Total template groups across all tiles."""
        return int(self.groups_per_tile.sum())

    @property
    def total_nnz(self) -> int:
        """Total non-zeros across all tiles."""
        return int(self.nnz_per_tile.sum())

    def occupancy(self) -> float:
        """Fraction of tiles of the full grid that are non-empty."""
        grid = self.n_tile_rows * self.n_tile_cols
        return self.n_tiles / grid if grid else 0.0

    def tiles_in_row(self) -> np.ndarray:
        """Number of non-empty tiles per tile row (length n_tile_rows)."""
        return np.bincount(self.tile_rows, minlength=self.n_tile_rows)

    def groups_in_row(self) -> np.ndarray:
        """Template groups per tile row — the per-row workload profile."""
        return np.bincount(
            self.tile_rows,
            weights=self.groups_per_tile,
            minlength=self.n_tile_rows,
        ).astype(np.int64)

    def imbalance(self, n_parallel: int) -> float:
        """Load imbalance of a round-robin tile-row partition.

        Ratio of the most loaded of ``n_parallel`` workers to the mean
        load (1.0 = perfectly balanced); the metric the workload schedule
        exploration tries to minimize.
        """
        loads = partition_loads(self.groups_in_row(), n_parallel)
        mean = loads.mean()
        return float(loads.max() / mean) if mean else 1.0


def partition_loads(row_loads: np.ndarray, n_parallel: int) -> np.ndarray:
    """Total load per worker of a round-robin tile-row assignment."""
    if n_parallel <= 0:
        raise ValueError("n_parallel must be positive")
    loads = np.zeros(n_parallel, dtype=np.int64)
    idx = np.arange(row_loads.size) % n_parallel
    np.add.at(loads, idx, row_loads.astype(np.int64))
    return loads


def global_compositions(shape, groups_per_submatrix, sub_keys,
                        nnz_per_submatrix, tile_sizes,
                        k: int = DEFAULT_K) -> dict:
    """Step ④ for a whole tile-size sweep: ``{tile_size: composition}``.

    Decomposition (step ③) is independent of the tile size — a
    submatrix's template count never changes — so Algorithm 4 only needs
    a re-aggregation per tile size.  Tiles nest: a ``2T`` tile is four
    ``T`` tiles, so each size is aggregated from the tiles of the
    largest smaller size that divides it, and only a size with no such
    divisor goes back to the submatrices.  Each level costs one stable
    sort of the level below it (whose keys arrive in a few sorted runs).

    Parameters
    ----------
    shape:
        Logical matrix shape.
    groups_per_submatrix, nnz_per_submatrix:
        Template-group and stored-entry counts of each non-empty
        submatrix.
    sub_keys:
        Row-major submatrix keys parallel to both counts (from
        :func:`repro.core.patterns.submatrix_masks`).
    tile_sizes:
        Tile edge lengths; sizes :func:`validate_tile_size` rejects are
        left out of the result (Algorithm 4 skips them).
    k:
        Local pattern size.
    """
    valid = set()
    for tile_size in tile_sizes:
        try:
            valid.add(validate_tile_size(tile_size, k))
        except TilingError:
            continue
    nsubcols = -(-shape[1] // k)
    sub_keys = np.asarray(sub_keys, dtype=np.int64)
    finest = (
        sub_keys // nsubcols,
        sub_keys % nsubcols,
        np.asarray(groups_per_submatrix, dtype=np.int64),
        np.asarray(nnz_per_submatrix, dtype=np.int64),
    )
    levels: dict = {}
    for tile_size in sorted(valid):
        base = max((t for t in levels if tile_size % t == 0), default=None)
        if base is None:
            rows, cols, groups, nnz = finest
            factor = tile_size // k
        else:
            comp = levels[base]
            rows, cols = comp.tile_rows, comp.tile_cols
            groups, nnz = comp.groups_per_tile, comp.nnz_per_tile
            factor = tile_size // base
        n_tile_cols = -(-shape[1] // tile_size)
        keys = (rows // factor) * n_tile_cols + cols // factor
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(first_of_run(keys))
        tiles = keys[starts]
        levels[tile_size] = GlobalComposition(
            shape=tuple(shape),
            k=k,
            tile_size=tile_size,
            tile_rows=tiles // n_tile_cols,
            tile_cols=tiles % n_tile_cols,
            groups_per_tile=np.add.reduceat(groups[order], starts),
            nnz_per_tile=np.add.reduceat(nnz[order], starts),
        )
    return levels
