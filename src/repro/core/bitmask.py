"""Bitmask algebra for k-by-k local patterns.

A local pattern is the occupancy of one k-by-k submatrix, stored as a
k*k-bit integer: bit ``r * k + c`` is set when cell ``(r, c)`` holds a
non-zero (Section II-B of the paper uses k = 4, i.e. 16-bit masks with
65535 possible non-empty patterns).
"""

from __future__ import annotations

import numpy as np

#: Default local pattern size used throughout the paper.
DEFAULT_K = 4

# 16-bit popcount lookup table for vectorized histogram work.
_POPCOUNT16 = np.array(
    [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
)


def popcount(mask: int) -> int:
    """Number of set bits of a scalar mask."""
    return bin(int(mask)).count("1")


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Vectorized popcount for arrays of masks up to 32 bits wide."""
    masks = np.asarray(masks, dtype=np.uint32)
    return (
        _POPCOUNT16[masks & 0xFFFF].astype(np.int64)
        + _POPCOUNT16[masks >> 16]
    )


def full_mask(k: int = DEFAULT_K) -> int:
    """Mask with every cell of the k-by-k grid set."""
    return (1 << (k * k)) - 1


def bit_of(r: int, c: int, k: int = DEFAULT_K) -> int:
    """Bit index of cell (r, c)."""
    return r * k + c


# The inverse in the coords_from_mask round-trip property
# (tests/test_bitmask.py::TestMaskConstruction::
#  test_coords_mask_roundtrip_property).
def mask_from_coords(rows, cols,  # lint: allow(api.unused-public)
                     k: int = DEFAULT_K) -> int:
    """Build a mask from parallel row/col coordinate sequences."""
    mask = 0
    for r, c in zip(rows, cols):
        if not (0 <= r < k and 0 <= c < k):
            raise ValueError(f"cell ({r}, {c}) outside {k}x{k} grid")
        mask |= 1 << bit_of(r, c, k)
    return mask


def coords_from_mask(mask: int, k: int = DEFAULT_K) -> list:
    """List of (row, col) cells of a mask, in bit (row-major) order."""
    cells = []
    for bit in range(k * k):
        if mask >> bit & 1:
            cells.append((bit // k, bit % k))
    return cells


def render_mask(mask: int, k: int = DEFAULT_K, set_char: str = "#",
                clear_char: str = ".") -> str:
    """ASCII-art rendering of a mask (rows top to bottom)."""
    lines = []
    for r in range(k):
        line = "".join(
            set_char if mask >> bit_of(r, c, k) & 1 else clear_char
            for c in range(k)
        )
        lines.append(line)
    return "\n".join(lines)


def row_mask(r: int, k: int = DEFAULT_K) -> int:
    """Row-wise (RW) pattern: all k cells of row ``r``."""
    return ((1 << k) - 1) << (r * k)


def col_mask(c: int, k: int = DEFAULT_K) -> int:
    """Column-wise (CW) pattern: all k cells of column ``c``."""
    mask = 0
    for r in range(k):
        mask |= 1 << bit_of(r, c, k)
    return mask


def diag_mask(shift: int, k: int = DEFAULT_K) -> int:
    """Cyclic diagonal pattern: cells (r, (r + shift) mod k)."""
    mask = 0
    for r in range(k):
        mask |= 1 << bit_of(r, (r + shift) % k, k)
    return mask


def antidiag_mask(shift: int, k: int = DEFAULT_K) -> int:
    """Cyclic anti-diagonal pattern: cells (r, (shift - r) mod k)."""
    mask = 0
    for r in range(k):
        mask |= 1 << bit_of(r, (shift - r) % k, k)
    return mask


def block_mask(r0: int, c0: int, bh: int, bw: int, k: int = DEFAULT_K,
               wrap: bool = False) -> int:
    """Block-wise (BW) pattern: a bh-by-bw block anchored at (r0, c0).

    With ``wrap`` the sampling window wraps around the grid torus-style,
    which yields the 16 distinct placements of portfolio 2 in Table V.
    """
    mask = 0
    for dr in range(bh):
        for dc in range(bw):
            r, c = r0 + dr, c0 + dc
            if wrap:
                r, c = r % k, c % k
            elif not (0 <= r < k and 0 <= c < k):
                raise ValueError(
                    f"block ({r0},{c0},{bh},{bw}) leaves the {k}x{k} grid"
                )
            mask |= 1 << bit_of(r, c, k)
    return mask
