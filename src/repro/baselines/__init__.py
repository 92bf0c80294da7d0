"""Baseline SpMV platforms (paper Section V-A2, Table III).

The paper compares against HiSparse, Serpens_a16/a24 (FPGA accelerators
measured on hardware) and cuSPARSE on an RTX 3090.  None of those
platforms is available here, so each is replaced by an analytic model
calibrated to its published specs (frequency, bandwidth, peak GFLOP/s)
and to the architectural behaviours that determine its per-matrix
efficiency — streaming byte cost, load imbalance, short-row overhead and
x-vector access locality.
"""

from repro.baselines.base import AcceleratorModel, MatrixStats, matrix_stats
from repro.baselines.hisparse import HiSparseModel
from repro.baselines.serpens import SerpensModel, SERPENS_A16, SERPENS_A24
from repro.baselines.gpu import CuSparseRTX3090Model
from repro.baselines.spasm import SpasmModel
from repro.baselines.serpens_sim import (
    SerpensProgram,
    SerpensRun,
    SerpensSimulator,
)
from repro.baselines.hisparse_sim import HiSparseRun, HiSparseSimulator

__all__ = [
    "AcceleratorModel",
    "MatrixStats",
    "matrix_stats",
    "HiSparseModel",
    "SerpensModel",
    "SERPENS_A16",
    "SERPENS_A24",
    "CuSparseRTX3090Model",
    "SpasmModel",
    "SerpensProgram",
    "SerpensRun",
    "SerpensSimulator",
    "HiSparseRun",
    "HiSparseSimulator",
]
