"""SPASM — a hardware-software design framework for SpMV acceleration
with a flexible access pattern portfolio.

Reproduction of the HPCA 2025 paper.  The public API re-exports the most
commonly used entry points; see the subpackages for the full surface:

* :mod:`repro.core` — pattern analysis, template portfolios, the SPASM
  data format and the workload scheduler;
* :mod:`repro.matrix` — the sparse matrix substrate (COO/CSR/BSR/ELL/
  DIA) with conversions and storage cost models;
* :mod:`repro.hw` — the SPASM accelerator model (VALU/PE/HBM functional
  simulator and the analytic performance model);
* :mod:`repro.baselines` — HiSparse, Serpens and cuSPARSE-on-RTX3090
  baseline models;
* :mod:`repro.synth` — synthetic workload generators and the Table II
  matrix suite;
* :mod:`repro.analysis` — metrics and report rendering for the paper's
  tables and figures;
* :mod:`repro.verify` — static invariant checker over encoded
  artifacts (streams, opcode tables, memory images, execution plans)
  and the codebase self-lint.
"""

from repro.matrix import COOMatrix, CSRMatrix, coo_to_csr, from_dense
from repro.core import (
    analyze_local_patterns,
    candidate_portfolios,
    build_portfolio,
    encode_spasm,
    select_portfolio,
    explore_schedule,
    DecompositionTable,
    SpasmCompiler,
    SpasmMatrix,
)
from repro.hw import (
    SpasmAccelerator,
    SPASM_4_1,
    SPASM_3_4,
    SPASM_3_2,
    DEFAULT_CONFIGS,
)
from repro.verify import (
    Report,
    VerificationError,
    verify_memory_image,
    verify_spasm,
)

__version__ = "1.0.0"

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "coo_to_csr",
    "from_dense",
    "analyze_local_patterns",
    "candidate_portfolios",
    "build_portfolio",
    "encode_spasm",
    "select_portfolio",
    "explore_schedule",
    "DecompositionTable",
    "SpasmCompiler",
    "SpasmMatrix",
    "SpasmAccelerator",
    "SPASM_4_1",
    "SPASM_3_4",
    "SPASM_3_2",
    "DEFAULT_CONFIGS",
    "Report",
    "VerificationError",
    "verify_memory_image",
    "verify_spasm",
    "__version__",
]
