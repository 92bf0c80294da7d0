"""The 32-bit SPASM position encoding (paper Section III).

Each template group — ``pattern_size`` values sharing one template — is
described by one 32-bit word with five fields:

=========  ====  =====================================================
field      bits  meaning
=========  ====  =====================================================
``c_idx``  13    column index of the k-by-k submatrix within the tile
``r_idx``  13    row index of the k-by-k submatrix within the tile
``CE``     1     last group before the input (x) vector buffer switches
``RE``     1     last group before the partial-sum (y) buffer flushes
``t_idx``  4     template identifier within the portfolio
=========  ====  =====================================================

The 13-bit submatrix indices bound the tile size at ``2**13 * 4 = 32768``
(paper Section III).  ``CE``/``RE`` directly drive the PE's double
buffers, so the encoder sets them on the final group of each tile
according to which tile coordinate changes next.
"""

from __future__ import annotations

import dataclasses

import numpy as np

#: Field widths/positions (LSB first): c_idx | r_idx | CE | RE | t_idx.
C_IDX_BITS = 13
R_IDX_BITS = 13
C_IDX_SHIFT = 0
R_IDX_SHIFT = C_IDX_BITS
CE_SHIFT = C_IDX_BITS + R_IDX_BITS  # 26
RE_SHIFT = CE_SHIFT + 1  # 27
T_IDX_SHIFT = RE_SHIFT + 1  # 28
T_IDX_BITS = 4

#: Maximum submatrix index representable in 13 bits.
MAX_SUBMATRIX_INDEX = (1 << C_IDX_BITS) - 1
#: Maximum tile size in matrix elements (2^13 submatrices of 4 rows).
MAX_TILE_SIZE = (1 << C_IDX_BITS) * 4

_IDX_MASK = (1 << C_IDX_BITS) - 1
_T_MASK = (1 << T_IDX_BITS) - 1


class EncodingError(ValueError):
    """Raised when a field does not fit its bit budget."""


@dataclasses.dataclass(frozen=True)
class PositionEncoding:
    """Decoded view of one position encoding word."""

    c_idx: int
    r_idx: int
    ce: bool
    re: bool
    t_idx: int


# The scalar oracle for pack_position_array
# (tests/test_encoding.py::TestArrayForms::test_array_matches_scalar).
def pack_position(c_idx: int,  # lint: allow(api.unused-public)
                  r_idx: int, ce: bool, re: bool, t_idx: int) -> int:
    """Pack the five fields into one 32-bit word."""
    if not 0 <= c_idx <= MAX_SUBMATRIX_INDEX:
        raise EncodingError(f"c_idx {c_idx} exceeds {C_IDX_BITS} bits")
    if not 0 <= r_idx <= MAX_SUBMATRIX_INDEX:
        raise EncodingError(f"r_idx {r_idx} exceeds {R_IDX_BITS} bits")
    if not 0 <= t_idx <= _T_MASK:
        raise EncodingError(f"t_idx {t_idx} exceeds {T_IDX_BITS} bits")
    word = (
        (c_idx << C_IDX_SHIFT)
        | (r_idx << R_IDX_SHIFT)
        | (int(bool(ce)) << CE_SHIFT)
        | (int(bool(re)) << RE_SHIFT)
        | (t_idx << T_IDX_SHIFT)
    )
    return word


def unpack_position(word: int) -> PositionEncoding:
    """Decode one 32-bit position word."""
    word = int(word)
    if not 0 <= word < (1 << 32):
        raise EncodingError(f"position word {word:#x} is not 32-bit")
    return PositionEncoding(
        c_idx=(word >> C_IDX_SHIFT) & _IDX_MASK,
        r_idx=(word >> R_IDX_SHIFT) & _IDX_MASK,
        ce=bool(word >> CE_SHIFT & 1),
        re=bool(word >> RE_SHIFT & 1),
        t_idx=(word >> T_IDX_SHIFT) & _T_MASK,
    )


def pack_position_array(c_idx: np.ndarray, r_idx: np.ndarray,
                        ce: np.ndarray, re: np.ndarray,
                        t_idx: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_position` producing a ``uint32`` array."""
    c_idx = np.asarray(c_idx, dtype=np.int64)
    r_idx = np.asarray(r_idx, dtype=np.int64)
    t_idx = np.asarray(t_idx, dtype=np.int64)
    if c_idx.size:
        if c_idx.min() < 0 or c_idx.max() > MAX_SUBMATRIX_INDEX:
            raise EncodingError("c_idx out of 13-bit range")
        if r_idx.min() < 0 or r_idx.max() > MAX_SUBMATRIX_INDEX:
            raise EncodingError("r_idx out of 13-bit range")
        if t_idx.min() < 0 or t_idx.max() > _T_MASK:
            raise EncodingError("t_idx out of 4-bit range")
    words = (
        (c_idx << C_IDX_SHIFT)
        | (r_idx << R_IDX_SHIFT)
        | (np.asarray(ce, dtype=np.int64) << CE_SHIFT)
        | (np.asarray(re, dtype=np.int64) << RE_SHIFT)
        | (t_idx << T_IDX_SHIFT)
    )
    return words.astype(np.uint32)


def unpack_position_array(words: np.ndarray) -> dict:
    """Vectorized :func:`unpack_position`; returns a dict of field arrays."""
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    return {
        "c_idx": (words >> C_IDX_SHIFT) & _IDX_MASK,
        "r_idx": (words >> R_IDX_SHIFT) & _IDX_MASK,
        "ce": (words >> CE_SHIFT & 1).astype(bool),
        "re": (words >> RE_SHIFT & 1).astype(bool),
        "t_idx": (words >> T_IDX_SHIFT) & _T_MASK,
    }
