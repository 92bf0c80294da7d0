"""Synthetic workload substrate.

The paper benchmarks 20 SuiteSparse matrices (Table II).  Those files are
not available offline, so this package generates synthetic stand-ins that
reproduce each matrix's published *density*, *local pattern mix* and
*global composition* — the three statistics every SPASM result actually
depends on — at a configurable scale.
"""

from repro.synth.generators import (
    block_diagonal,
    banded,
    diagonal_stripes,
    anti_diagonal_stripes,
    fem_mesh,
    mycielskian_graph,
    random_uniform,
    row_segments,
    staircase,
    dense_rows,
    overlay,
)
from repro.synth.workloads import (
    WorkloadSpec,
    WORKLOAD_SUITE,
    workload_names,
    load_workload,
    load_suite,
)

__all__ = [
    "block_diagonal",
    "banded",
    "diagonal_stripes",
    "anti_diagonal_stripes",
    "fem_mesh",
    "mycielskian_graph",
    "random_uniform",
    "row_segments",
    "staircase",
    "dense_rows",
    "overlay",
    "WorkloadSpec",
    "WORKLOAD_SUITE",
    "workload_names",
    "load_workload",
    "load_suite",
]
