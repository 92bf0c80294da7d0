"""SPASM core: pattern analysis, template portfolios, decomposition, the
SPASM sparse data format and the workload scheduler (paper Sections II-IV).
"""

from repro.core.bitmask import (
    popcount,
    popcount_array,
    mask_from_coords,
    coords_from_mask,
    render_mask,
    full_mask,
    row_mask,
    col_mask,
    diag_mask,
    antidiag_mask,
    block_mask,
)
from repro.core.patterns import PatternHistogram, analyze_local_patterns
from repro.core.templates import (
    Template,
    Portfolio,
    PortfolioError,
    build_portfolio,
    candidate_portfolios,
    template_universe,
)
from repro.core.decompose import (
    DecompositionError,
    DecompositionTable,
    cached_table,
    find_best_decomp,
)
from repro.core.encoding import (
    PositionEncoding,
    pack_position,
    unpack_position,
    MAX_SUBMATRIX_INDEX,
    MAX_TILE_SIZE,
)
from repro.core.format import (
    FormatError,
    SpasmMatrix,
    SpasmTile,
    encode_spasm,
)
from repro.core.tiling import GlobalComposition, global_compositions
from repro.core.selection import SelectionResult, select_portfolio
from repro.core.dynamic import (
    GreedyBuildResult,
    GreedyPortfolioBuilder,
    select_portfolio_dynamic,
)
from repro.core.schedule import ScheduleResult, explore_schedule
from repro.core.framework import SpasmCompiler, SpasmProgram
from repro.core.serialize import load_spasm, save_spasm

__all__ = [
    "popcount",
    "popcount_array",
    "mask_from_coords",
    "coords_from_mask",
    "render_mask",
    "full_mask",
    "row_mask",
    "col_mask",
    "diag_mask",
    "antidiag_mask",
    "block_mask",
    "PatternHistogram",
    "analyze_local_patterns",
    "Template",
    "Portfolio",
    "PortfolioError",
    "build_portfolio",
    "candidate_portfolios",
    "template_universe",
    "DecompositionError",
    "DecompositionTable",
    "cached_table",
    "find_best_decomp",
    "PositionEncoding",
    "pack_position",
    "unpack_position",
    "MAX_SUBMATRIX_INDEX",
    "MAX_TILE_SIZE",
    "FormatError",
    "SpasmMatrix",
    "SpasmTile",
    "encode_spasm",
    "GlobalComposition",
    "global_compositions",
    "SelectionResult",
    "select_portfolio",
    "GreedyBuildResult",
    "GreedyPortfolioBuilder",
    "select_portfolio_dynamic",
    "ScheduleResult",
    "explore_schedule",
    "SpasmCompiler",
    "SpasmProgram",
    "load_spasm",
    "save_spasm",
]
