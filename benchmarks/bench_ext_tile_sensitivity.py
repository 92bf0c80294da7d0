"""Extension: tile-size sensitivity of the performance model.

Figure 14 showed that tile-size exploration is worth ~13%; this bench
exposes the underlying curve the explorer walks: estimated cycles per
tile size (SPASM_4_1) for matrices with opposite preferences.  The
expected shape is a U: tiny tiles multiply tile-switch overhead and
x reloads, huge tiles starve the PE array of parallel tiles — and the
minimum sits at different sizes for different global compositions,
which is exactly why Algorithm 4 sweeps it per matrix.
"""

from benchmarks.conftest import publish
from repro.analysis.report import format_table
from repro.core import DecompositionTable, candidate_portfolios
from repro.core.format import groups_per_submatrix
from repro.core.patterns import submatrix_masks
from repro.core.tiling import global_compositions
from repro.hw.configs import SPASM_4_1
from repro.hw.perf_model import perf_model

MATRICES = ("raefsky3", "mip1", "tmt_sym", "mycielskian14")
TILE_SIZES = (16, 64, 256, 1024, 4096)


def test_ext_tile_sensitivity(benchmark, suite):
    by_name = dict(suite)
    table_dec = DecompositionTable(candidate_portfolios()[0])

    def sweep():
        rows = []
        for name in MATRICES:
            coo = by_name[name]
            counts, keys = groups_per_submatrix(coo, table_dec)
            nnz = submatrix_masks(coo)[2]
            compositions = global_compositions(
                coo.shape, counts, keys, nnz, TILE_SIZES
            )
            cycles = [
                perf_model(compositions[t], SPASM_4_1, t)
                for t in TILE_SIZES
            ]
            rows.append((name, cycles))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table_rows = []
    for name, cycles in rows:
        best = TILE_SIZES[cycles.index(min(cycles))]
        table_rows.append([name] + [f"{c:.0f}" for c in cycles] + [best])
    table = format_table(
        ["matrix"] + [f"tile {t}" for t in TILE_SIZES] + ["best"],
        table_rows,
        title="Extension: estimated cycles vs tile size (SPASM_4_1)",
    )
    publish("ext_tile_sensitivity", table)

    best_sizes = {
        name: TILE_SIZES[cycles.index(min(cycles))]
        for name, cycles in rows
    }
    # Different global compositions prefer different tile sizes.
    assert len(set(best_sizes.values())) >= 2
    # The extremes are never uniformly best across the suite subset.
    for name, cycles in rows:
        assert min(cycles) < max(cycles)
