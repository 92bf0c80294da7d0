"""Tests for hardware configurations (Table IV) and HBM accounting."""

import pytest

from repro.hw.configs import (
    CHANNEL_BANDWIDTH,
    DEFAULT_CONFIGS,
    SPASM_3_2,
    SPASM_3_4,
    SPASM_4_1,
    U280_NUM_CHANNELS,
    ConfigError,
    HwConfig,
)
from repro.hw.hbm import HBMChannel, HBMSystem


class TestTableIV:
    """The three evaluated bitstreams must reproduce Table IV."""

    def test_channel_formula(self):
        assert SPASM_4_1.hbm_channels == 1 + 4 * (1 + 6) == 29
        assert SPASM_3_4.hbm_channels == 1 + 3 * (4 + 6) == 31
        assert SPASM_3_2.hbm_channels == 1 + 3 * (2 + 6) == 25

    def test_bandwidth(self):
        assert SPASM_4_1.bandwidth / 1e9 == pytest.approx(417, abs=1)
        assert SPASM_3_4.bandwidth / 1e9 == pytest.approx(446, abs=1)
        assert SPASM_3_2.bandwidth / 1e9 == pytest.approx(360, abs=1)

    def test_peak_gflops(self):
        assert SPASM_4_1.peak_gflops == pytest.approx(129, abs=1)
        assert SPASM_3_4.peak_gflops == pytest.approx(102, abs=1)
        assert SPASM_3_2.peak_gflops == pytest.approx(96.4, abs=0.5)

    def test_parallelism(self):
        assert SPASM_4_1.num_pes == 64
        assert SPASM_4_1.parallelism == 256
        assert SPASM_3_2.num_pes == 48

    def test_max_parallelism_is_64_pes(self):
        # "allowing for a maximum of 64 parallelism" (PEs).
        assert max(c.num_pes for c in DEFAULT_CONFIGS) == 64

    def test_describe(self):
        text = SPASM_4_1.describe()
        assert "SPASM_4_1" in text and "29 channels" in text


class TestOnchipRAM:
    def test_footprint_formula(self):
        # 12 bytes per buffered element per PE (2x x + 1x psum).
        assert SPASM_4_1.onchip_ram_bytes(1024) == 64 * 1024 * 12

    def test_all_default_configs_fit_max_tile(self):
        # The 13-bit tile budget keeps every Table IV bitstream within
        # the U280's 34 MB of on-chip RAM.
        for config in DEFAULT_CONFIGS:
            assert config.fits_onchip(2**13 * 4)

    def test_oversized_budget_rejected(self):
        assert not SPASM_4_1.fits_onchip(32768, budget=1024)

    def test_perf_model_prunes_infeasible_points(self):
        import numpy as np

        from repro.core.tiling import GlobalComposition
        from repro.hw.perf_model import perf_model

        class TinyRamConfig(HwConfig):
            def fits_onchip(self, tile_size, budget=None):
                return tile_size <= 16

        gc = GlobalComposition(
            shape=(64, 64),
            k=4,
            tile_size=32,
            tile_rows=np.array([0]),
            tile_cols=np.array([0]),
            groups_per_tile=np.array([4]),
            nnz_per_tile=np.array([16]),
        )
        tiny = TinyRamConfig("tiny", 4, 1, 250e6)
        assert perf_model(gc, tiny, 32) == float("inf")
        assert perf_model(gc, tiny, 16) < float("inf")
        assert perf_model(gc, SPASM_4_1, 32) < float("inf")


class TestValidation:
    def test_rejects_channel_overflow(self):
        with pytest.raises(ConfigError):
            HwConfig("too_big", 4, 10, 250e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            HwConfig("bad", 0, 1, 250e6)

    def test_channel_bandwidth_u280(self):
        assert CHANNEL_BANDWIDTH * U280_NUM_CHANNELS == pytest.approx(
            460e9
        )


class TestHBM:
    def test_channel_transfer_and_cycles(self):
        ch = HBMChannel("test")
        ch.transfer(100)
        ch.transfer(28)
        assert ch.bytes_served == 128
        assert ch.cycles(64.0) == 2.0

    def test_channel_rejects_negative(self):
        with pytest.raises(ValueError):
            HBMChannel("test").transfer(-1)

    def test_system_channel_count_matches_config(self):
        for config in DEFAULT_CONFIGS:
            hbm = HBMSystem(config)
            assert len(hbm) == config.hbm_channels

    def test_system_roles(self):
        hbm = HBMSystem(SPASM_4_1)
        assert "y" in hbm.channels
        assert "g0.value0" in hbm.channels
        assert "g3.pos1" in hbm.channels
        assert "g0.xvec0" in hbm.channels

    def test_busiest(self):
        hbm = HBMSystem(SPASM_4_1)
        hbm["g1.value2"].transfer(1000)
        name, cycles = hbm.busiest(10.0)
        assert name == "g1.value2"
        assert cycles == 100.0

    def test_total_bytes(self):
        hbm = HBMSystem(SPASM_3_2)
        hbm["y"].transfer(11)
        hbm["g0.pos0"].transfer(22)
        assert hbm.total_bytes == 33
