"""Partial-sum accumulator hazards (microarchitecture refinement).

The PE accumulates each VALU result into the partial-sum buffer at
``r_idx``.  A pipelined floating-point adder takes several cycles, so
two groups hitting the same ``r_idx`` closer together than the adder
latency stall the pipeline — the classic SpMV accumulation hazard that
designs like Serpens spend most of their architecture on.

This module quantifies the effect for SPASM streams and removes most of
it in software: because groups within a tile commute (they accumulate
into disjoint-or-associative psum slots), the encoder may reorder them
freely, and interleaving by ``r_idx`` spaces out repeat visits.

Stalls are modeled first-order: each group pays
``max(0, latency - distance_to_previous_same_r_idx)`` cycles, with
distances confined to the tile (the psum buffer is flushed/reused
across tiles anyway).  Cascading of stalls is ignored, the standard
analytic simplification.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import unpack_position_array
from repro.core.format import SpasmMatrix

#: A representative pipelined FP32 adder latency on FPGA fabric.
DEFAULT_ADDER_LATENCY = 8


def _group_fields(spasm: SpasmMatrix):
    fields = unpack_position_array(spasm.words)
    tile_of_group = np.repeat(
        np.arange(spasm.n_tiles), spasm.groups_per_tile()
    )
    return fields, tile_of_group


# The oracle for stall_cycles_per_tile
# (tests/test_hazards.py::TestCountStalls::test_per_tile_sums_to_total).
def count_stall_cycles(spasm: SpasmMatrix,  # lint: allow(api.unused-public)
                       latency: int = DEFAULT_ADDER_LATENCY) -> int:
    """Total first-order accumulator stall cycles of a stream.

    For every group, the distance (in groups) to the previous group of
    the same tile writing the same ``r_idx`` is computed; distances
    shorter than ``latency`` stall for the difference.
    """
    if latency < 0:
        raise ValueError("latency must be non-negative")
    if latency == 0 or spasm.n_groups == 0:
        return 0
    fields, tile_of_group = _group_fields(spasm)
    position = np.arange(spasm.n_groups, dtype=np.int64)
    # Group the stream positions by (tile, r_idx); gaps between
    # consecutive positions of a group are the reuse distances.
    key = tile_of_group * np.int64(1 << 16) + fields["r_idx"]
    order = np.lexsort((position, key))
    key_sorted = key[order]
    pos_sorted = position[order]
    same = key_sorted[1:] == key_sorted[:-1]
    distances = (pos_sorted[1:] - pos_sorted[:-1])[same]
    stalls = np.maximum(0, latency - distances)
    return int(stalls.sum())


def hazard_aware_reorder(spasm: SpasmMatrix) -> SpasmMatrix:
    """Reorder each tile's groups to space out same-``r_idx`` visits.

    Within a tile the groups commute (pure accumulation), so any order
    computes the same result.  Sorting by (visit number within the
    group's ``r_idx``, ``r_idx``) round-robins across rows: consecutive
    stream slots touch different psum entries whenever the tile has
    more than one active row.  CE/RE flags are recomputed for the new
    order.
    """
    from repro.core.encoding import pack_position_array

    if spasm.n_groups == 0:
        return spasm
    fields, tile_of_group = _group_fields(spasm)
    r_idx = fields["r_idx"]

    # Visit number of each group within its (tile, r_idx) set.
    key = tile_of_group * np.int64(1 << 16) + r_idx
    order_by_key = np.lexsort(
        (np.arange(spasm.n_groups), key)
    )
    key_sorted = key[order_by_key]
    visit_sorted = np.arange(spasm.n_groups) - np.maximum.accumulate(
        np.where(
            np.concatenate(([True], key_sorted[1:] != key_sorted[:-1])),
            np.arange(spasm.n_groups),
            0,
        )
    )
    visit = np.empty(spasm.n_groups, dtype=np.int64)
    visit[order_by_key] = visit_sorted

    # New order: tile-major, then visit round-robin, then r_idx.
    new_order = np.lexsort((fields["c_idx"], r_idx, visit, tile_of_group))

    new_tile = tile_of_group[new_order]
    is_tile_last = np.empty(spasm.n_groups, dtype=bool)
    is_tile_last[:-1] = new_tile[1:] != new_tile[:-1]
    is_tile_last[-1] = True
    new_rows = spasm.tile_rows[new_tile]
    is_row_last = np.empty(spasm.n_groups, dtype=bool)
    is_row_last[:-1] = new_rows[1:] != new_rows[:-1]
    is_row_last[-1] = True

    words = pack_position_array(
        c_idx=fields["c_idx"][new_order],
        r_idx=r_idx[new_order],
        ce=is_tile_last,
        re=is_row_last,
        t_idx=fields["t_idx"][new_order],
    )
    return SpasmMatrix(
        shape=spasm.shape,
        k=spasm.k,
        tile_size=spasm.tile_size,
        portfolio=spasm.portfolio,
        tile_rows=spasm.tile_rows.copy(),
        tile_cols=spasm.tile_cols.copy(),
        tile_ptr=spasm.tile_ptr.copy(),
        words=words,
        values=spasm.values[new_order],
        source_nnz=spasm.source_nnz,
    )


def stall_cycles_per_tile(spasm: SpasmMatrix,
                          latency: int = DEFAULT_ADDER_LATENCY
                          ) -> np.ndarray:
    """First-order stall cycles of each tile's group stream."""
    if latency < 0:
        raise ValueError("latency must be non-negative")
    out = np.zeros(spasm.n_tiles, dtype=np.int64)
    if latency == 0 or spasm.n_groups == 0:
        return out
    fields, tile_of_group = _group_fields(spasm)
    position = np.arange(spasm.n_groups, dtype=np.int64)
    key = tile_of_group * np.int64(1 << 16) + fields["r_idx"]
    order = np.lexsort((position, key))
    key_sorted = key[order]
    pos_sorted = position[order]
    same = key_sorted[1:] == key_sorted[:-1]
    distances = (pos_sorted[1:] - pos_sorted[:-1])[same]
    stalls = np.maximum(0, latency - distances)
    tiles = tile_of_group[order][1:][same]
    np.add.at(out, tiles, stalls)
    return out


def perf_with_hazards(spasm: SpasmMatrix, config,
                      latency: int = DEFAULT_ADDER_LATENCY,
                      policy: str = "greedy") -> float:
    """Estimated cycles including accumulator stalls.

    Same resource model as :func:`repro.hw.perf_model.perf_breakdown`
    but with each PE's compute term inflated by the stall cycles of its
    assigned tiles.
    """
    from repro.hw.pe import TILE_SWITCH_CYCLES
    from repro.hw.perf_model import (
        PIPELINE_FILL_CYCLES,
        assign_tiles,
        perf_breakdown,
    )

    composition = spasm.global_composition()
    breakdown = perf_breakdown(
        composition, config, spasm.tile_size, policy
    )
    groups_per_tile = composition.groups_per_tile
    owner = assign_tiles(groups_per_tile, config.num_pes, policy)
    stalls = stall_cycles_per_tile(spasm, latency)
    pe_cycles = (
        np.bincount(
            owner,
            weights=groups_per_tile + stalls,
            minlength=config.num_pes,
        )
        + TILE_SWITCH_CYCLES * np.bincount(owner, minlength=config.num_pes)
    )
    compute = float(pe_cycles.max()) if owner.size else 0.0
    return (
        max(
            compute,
            breakdown.value_stream_cycles,
            breakdown.position_stream_cycles,
            breakdown.x_load_cycles,
            breakdown.y_cycles,
        )
        + PIPELINE_FILL_CYCLES
    )
