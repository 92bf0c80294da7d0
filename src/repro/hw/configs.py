"""SPASM hardware configurations (paper Sections IV-D3 and V-A3).

The accelerator is parameterized by ``NUM_PE_GROUP`` (PE groups of 16 PEs
each) and ``NUM_XVEC_CH`` (HBM channels loading the x vector per group).
The HBM channel budget is ``1 + NUM_PE_GROUP * (NUM_XVEC_CH + 6)``: one
global channel for y, and per group four value channels (one per 4 PEs),
two position-encoding channels and the x channels.

On the U280 (32 channels x 14.375 GB/s = 460 GB/s) the three evaluated
bitstreams reproduce Table IV:

============  =========  ==========  ===========
version       frequency  bandwidth   peak perf.
============  =========  ==========  ===========
SPASM_4_1     252 MHz    417 GB/s    129 GFLOP/s
SPASM_3_4     265 MHz    446 GB/s    102 GFLOP/s
SPASM_3_2     251 MHz    360 GB/s    96.4 GFLOP/s
============  =========  ==========  ===========
"""

from __future__ import annotations

import dataclasses

#: Alveo U280 HBM: total bandwidth and channel count.
U280_TOTAL_BANDWIDTH = 460e9  # bytes/s
U280_NUM_CHANNELS = 32
#: Bandwidth of one HBM (pseudo-)channel.
CHANNEL_BANDWIDTH = U280_TOTAL_BANDWIDTH / U280_NUM_CHANNELS  # 14.375 GB/s
#: On-chip RAM budget of the U280 (paper Section V-A3: ~34 MB).
U280_ONCHIP_RAM = 34 * 1024 * 1024

#: PEs per PE group and scalar lanes per PE (the VALU width).
PES_PER_GROUP = 16
LANES_PER_PE = 4
#: PEs sharing one A-value HBM channel.
PES_PER_VALUE_CHANNEL = 4
#: Position-encoding channels per PE group.
POSITION_CHANNELS_PER_GROUP = 2


class ConfigError(ValueError):
    """Raised when a configuration exceeds the platform budget."""


@dataclasses.dataclass(frozen=True)
class HwConfig:
    """One synthesizable SPASM hardware version.

    Attributes
    ----------
    name:
        Bitstream label, ``SPASM_{NUM_PE_GROUP}_{NUM_XVEC_CH}``.
    num_pe_groups:
        Number of PE groups (16 PEs each).
    num_xvec_ch:
        HBM channels dedicated to x-vector loading per PE group.
    frequency_hz:
        Achieved post-route clock (paper Table IV).
    """

    name: str
    num_pe_groups: int
    num_xvec_ch: int
    frequency_hz: float

    def __post_init__(self):
        if self.num_pe_groups <= 0 or self.num_xvec_ch <= 0:
            raise ConfigError("PE groups and x channels must be positive")
        if self.hbm_channels > U280_NUM_CHANNELS:
            raise ConfigError(
                f"{self.name} needs {self.hbm_channels} HBM channels; the "
                f"U280 provides {U280_NUM_CHANNELS}"
            )

    @property
    def num_pes(self) -> int:
        """Total PEs (16 per group)."""
        return self.num_pe_groups * PES_PER_GROUP

    @property
    def parallelism(self) -> int:
        """Total scalar multiply lanes (4 per PE)."""
        return self.num_pes * LANES_PER_PE

    @property
    def hbm_channels(self) -> int:
        """Paper formula: 1 + NUM_PE_GROUP * (NUM_XVEC_CH + 6)."""
        return 1 + self.num_pe_groups * (self.num_xvec_ch + 6)

    @property
    def bandwidth(self) -> float:
        """Aggregate HBM bandwidth in bytes/s."""
        return self.hbm_channels * CHANNEL_BANDWIDTH

    @property
    def peak_gflops(self) -> float:
        """Peak throughput: lanes x 2 FLOP (mul+add) x clock."""
        return self.parallelism * 2 * self.frequency_hz / 1e9

    @property
    def bytes_per_cycle_per_channel(self) -> float:
        """HBM channel service rate at the core clock."""
        return CHANNEL_BANDWIDTH / self.frequency_hz

    def onchip_ram_bytes(self, tile_size: int) -> int:
        """On-chip buffer footprint at a tile size.

        Per PE: a double-buffered x buffer (2 x tile_size x 4 B) and a
        partial-sum buffer (tile_size x 4 B).
        """
        return self.num_pes * tile_size * 12

    def fits_onchip(self, tile_size: int,
                    budget: int = U280_ONCHIP_RAM) -> bool:
        """Whether the buffers of a tile size fit the platform RAM.

        The schedule exploration uses this to prune (tile size, config)
        points no bitstream could implement.
        """
        return self.onchip_ram_bytes(tile_size) <= budget

    def channel_inventory(self) -> dict:
        """Names of the A-value and position channels this config packs.

        The canonical per-group naming (``g{g}.value{v}`` /
        ``g{g}.pos{p}``) shared by :func:`repro.hw.memory_image.pack_images`
        and the ``mem.*`` verification rules.
        """
        value = [
            f"g{g}.value{v}"
            for g in range(self.num_pe_groups)
            for v in range(PES_PER_GROUP // PES_PER_VALUE_CHANNEL)
        ]
        position = [
            f"g{g}.pos{p}"
            for g in range(self.num_pe_groups)
            for p in range(POSITION_CHANNELS_PER_GROUP)
        ]
        return {"value": value, "position": position}

    def describe(self) -> str:
        """Table IV style one-liner."""
        return (
            f"{self.name}: {self.frequency_hz / 1e6:.0f} MHz, "
            f"{self.bandwidth / 1e9:.0f} GB/s "
            f"({self.hbm_channels} channels), "
            f"{self.peak_gflops:.1f} GFLOP/s peak"
        )


#: The three bitstreams evaluated in the paper (Table IV).
SPASM_4_1 = HwConfig("SPASM_4_1", 4, 1, 252e6)
SPASM_3_4 = HwConfig("SPASM_3_4", 3, 4, 265e6)
SPASM_3_2 = HwConfig("SPASM_3_2", 3, 2, 251e6)

DEFAULT_CONFIGS = (SPASM_4_1, SPASM_3_4, SPASM_3_2)
