"""Unit and property tests for repro.core.bitmask."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitmask as bm


class TestPopcount:
    def test_zero(self):
        assert bm.popcount(0) == 0

    def test_full_16bit(self):
        assert bm.popcount(0xFFFF) == 16

    def test_single_bits(self):
        for i in range(16):
            assert bm.popcount(1 << i) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bin_count(self, value):
        assert bm.popcount(value) == bin(value).count("1")

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=1, max_size=50))
    def test_array_matches_scalar(self, values):
        arr = np.array(values, dtype=np.uint32)
        expected = [bm.popcount(v) for v in values]
        assert bm.popcount_array(arr).tolist() == expected


class TestMaskConstruction:
    def test_full_mask_4(self):
        assert bm.full_mask(4) == 0xFFFF

    def test_full_mask_2(self):
        assert bm.full_mask(2) == 0xF

    def test_bit_of_row_major(self):
        assert bm.bit_of(0, 0, 4) == 0
        assert bm.bit_of(0, 3, 4) == 3
        assert bm.bit_of(1, 0, 4) == 4
        assert bm.bit_of(3, 3, 4) == 15

    def test_mask_from_coords(self):
        mask = bm.mask_from_coords([0, 1], [0, 1], 4)
        assert mask == (1 << 0) | (1 << 5)

    def test_mask_from_coords_rejects_outside(self):
        with pytest.raises(ValueError):
            bm.mask_from_coords([4], [0], 4)

    def test_coords_roundtrip(self):
        cells = [(0, 1), (2, 3), (3, 0)]
        mask = bm.mask_from_coords(*zip(*cells), 4)
        assert bm.coords_from_mask(mask, 4) == sorted(cells)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_coords_mask_roundtrip_property(self, mask):
        cells = bm.coords_from_mask(mask, 4)
        if cells:
            rebuilt = bm.mask_from_coords(*zip(*cells), 4)
        else:
            rebuilt = 0
        assert rebuilt == mask


class TestPatternFamilies:
    def test_row_masks_partition_grid(self):
        union = 0
        for r in range(4):
            mask = bm.row_mask(r, 4)
            assert bm.popcount(mask) == 4
            assert union & mask == 0
            union |= mask
        assert union == bm.full_mask(4)

    def test_col_masks_partition_grid(self):
        union = 0
        for c in range(4):
            mask = bm.col_mask(c, 4)
            assert bm.popcount(mask) == 4
            assert union & mask == 0
            union |= mask
        assert union == bm.full_mask(4)

    def test_diag_masks_partition_grid(self):
        union = 0
        for s in range(4):
            mask = bm.diag_mask(s, 4)
            assert bm.popcount(mask) == 4
            assert union & mask == 0
            union |= mask
        assert union == bm.full_mask(4)

    def test_antidiag_masks_partition_grid(self):
        union = 0
        for s in range(4):
            mask = bm.antidiag_mask(s, 4)
            assert bm.popcount(mask) == 4
            assert union & mask == 0
            union |= mask
        assert union == bm.full_mask(4)

    def test_main_diag_cells(self):
        cells = bm.coords_from_mask(bm.diag_mask(0, 4), 4)
        assert cells == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_main_antidiag_cells(self):
        cells = bm.coords_from_mask(bm.antidiag_mask(3, 4), 4)
        assert cells == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_block_mask(self):
        mask = bm.block_mask(1, 1, 2, 2, 4)
        assert bm.coords_from_mask(mask, 4) == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_block_mask_rejects_overflow_without_wrap(self):
        with pytest.raises(ValueError):
            bm.block_mask(3, 3, 2, 2, 4)

    def test_block_mask_wraps(self):
        mask = bm.block_mask(3, 3, 2, 2, 4, wrap=True)
        assert bm.coords_from_mask(mask, 4) == [
            (0, 0), (0, 3), (3, 0), (3, 3),
        ]


class TestRender:
    def test_render_empty(self):
        assert bm.render_mask(0, 2) == "..\n.."

    def test_render_diag(self):
        assert bm.render_mask(bm.diag_mask(0, 2), 2) == "#.\n.#"

    def test_render_row_major_orientation(self):
        mask = 1 << bm.bit_of(0, 1, 2)
        assert bm.render_mask(mask, 2) == ".#\n.."
