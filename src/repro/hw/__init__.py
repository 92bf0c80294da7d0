"""SPASM hardware model (paper Section IV-D).

The paper implements SPASM on a Xilinx Alveo U280; this package replaces
the FPGA with a faithful Python model at two levels:

* a **functional** simulator (:mod:`repro.hw.accelerator`) that executes
  SPASM-encoded matrices through the VALU/PE/PE-group datapath, bit-for-
  bit reproducing the template routing via the 30-bit opcodes, and
* an **analytic performance model** (:mod:`repro.hw.perf_model`) that
  estimates execution cycles from the global composition — this is the
  ``PERF_MODEL`` that Algorithm 4's schedule exploration queries.
"""

from repro.hw.configs import (
    HwConfig,
    SPASM_4_1,
    SPASM_3_4,
    SPASM_3_2,
    DEFAULT_CONFIGS,
    U280_TOTAL_BANDWIDTH,
    U280_NUM_CHANNELS,
    CHANNEL_BANDWIDTH,
)
from repro.hw.opcode import (
    OpcodeError,
    encode_opcode,
    decode_opcode,
    opcode_for_template,
    opcode_table,
)
from repro.hw.valu import VALU, VALUOp
from repro.hw.hbm import HBMChannel, HBMSystem
from repro.hw.pe import PE, PEStats
from repro.hw.pe_group import PEGroup
from repro.hw.accelerator import SpasmAccelerator, SimResult
from repro.hw.perf_model import (
    perf_model,
    PerfBreakdown,
    perf_breakdown,
    perf_breakdown_spmm,
    assign_tiles,
)
from repro.hw.power import platform_power, energy_efficiency
from repro.hw.fast_sim import fast_run, fast_run_batch
from repro.hw.hazards import (
    count_stall_cycles,
    hazard_aware_reorder,
    perf_with_hazards,
)
from repro.hw.memory_image import MemoryImage, pack_images, unpack_images

__all__ = [
    "HwConfig",
    "SPASM_4_1",
    "SPASM_3_4",
    "SPASM_3_2",
    "DEFAULT_CONFIGS",
    "U280_TOTAL_BANDWIDTH",
    "U280_NUM_CHANNELS",
    "CHANNEL_BANDWIDTH",
    "OpcodeError",
    "encode_opcode",
    "decode_opcode",
    "opcode_for_template",
    "opcode_table",
    "VALU",
    "VALUOp",
    "HBMChannel",
    "HBMSystem",
    "PE",
    "PEStats",
    "PEGroup",
    "SpasmAccelerator",
    "SimResult",
    "perf_model",
    "PerfBreakdown",
    "perf_breakdown",
    "perf_breakdown_spmm",
    "assign_tiles",
    "platform_power",
    "energy_efficiency",
    "fast_run",
    "fast_run_batch",
    "count_stall_cycles",
    "hazard_aware_reorder",
    "perf_with_hazards",
    "MemoryImage",
    "pack_images",
    "unpack_images",
]
