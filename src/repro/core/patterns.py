"""Step ① — local pattern analysis (paper Algorithm 2).

The matrix is tiled into k-by-k submatrices; each non-empty submatrix
contributes one k*k-bit occupancy bitmask, and the analysis produces the
(bitmask -> frequency) histogram that drives template selection (Fig. 2
shows its top-8 entries, Fig. 3 the CDF of its top-n mass).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.bitmask import DEFAULT_K, popcount_array, render_mask
from repro.matrix.coo import COOMatrix


@dataclasses.dataclass(frozen=True)
class PatternHistogram:
    """Histogram of local pattern occurrences.

    Attributes
    ----------
    k:
        Local pattern size.
    patterns:
        Distinct pattern masks, sorted by descending frequency (ties by
        ascending mask for determinism).
    frequencies:
        Occurrence count per pattern, parallel to ``patterns``.
    """

    k: int
    patterns: np.ndarray
    frequencies: np.ndarray

    @property
    def n_distinct(self) -> int:
        """Number of distinct non-empty patterns observed."""
        return int(self.patterns.size)

    @property
    def total(self) -> int:
        """Total number of non-empty submatrices."""
        return int(self.frequencies.sum())

    def items(self):
        """Iterate (pattern, frequency) pairs, most frequent first."""
        return zip(
            (int(p) for p in self.patterns),
            (int(f) for f in self.frequencies),
        )

    def top(self, n: int) -> "PatternHistogram":
        """Sub-histogram of the top-n most frequent patterns."""
        n = min(n, self.n_distinct)
        return PatternHistogram(
            self.k, self.patterns[:n].copy(), self.frequencies[:n].copy()
        )

    def top_fraction(self, coverage: float) -> "PatternHistogram":
        """Smallest top-n sub-histogram whose mass reaches ``coverage``.

        This is the paper's "top-n patterns count up a certain portion of
        the total occurring patterns" preprocessing shortcut.
        """
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        if self.n_distinct == 0:
            return self
        cum = np.cumsum(self.frequencies) / self.total
        n = int(np.searchsorted(cum, coverage) + 1)
        return self.top(n)

    def cdf(self) -> np.ndarray:
        """Cumulative frequency share of the top-n patterns (Figure 3)."""
        if self.total == 0:
            return np.zeros(0)
        return np.cumsum(self.frequencies) / self.total

    def coverage_of_top(self, n: int) -> float:
        """Frequency share captured by the top-n patterns."""
        if self.total == 0:
            return 0.0
        n = min(n, self.n_distinct)
        return float(self.frequencies[:n].sum() / self.total)

    def nnz_per_pattern(self) -> np.ndarray:
        """Popcount of each distinct pattern."""
        return popcount_array(self.patterns)

    def describe_top(self, n: int = 8) -> str:
        """Figure 2 style report: top-n patterns with ASCII art."""
        lines = []
        for rank, (pattern, freq) in enumerate(self.top(n).items()):
            share = freq / self.total * 100.0
            lines.append(
                f"#{rank + 1}: mask={pattern:#06x} freq={freq} "
                f"({share:.2f}%)"
            )
            lines.append(render_mask(pattern, self.k))
        return "\n".join(lines)


def analyze_local_patterns(matrix, k: int = DEFAULT_K) -> PatternHistogram:
    """Paper Algorithm 2: build the local pattern histogram of a matrix.

    Parameters
    ----------
    matrix:
        A :class:`COOMatrix` (other formats: convert first).
    k:
        Submatrix size (paper default 4).

    Returns
    -------
    PatternHistogram
        Histogram over the non-empty k-by-k submatrices.
    """
    if not isinstance(matrix, COOMatrix):
        raise TypeError("analyze_local_patterns expects a COOMatrix")
    if k <= 0:
        raise ValueError(f"pattern size must be positive, got {k}")
    if k * k > 32:
        raise ValueError(f"pattern size {k} exceeds the 32-bit mask budget")
    masks = submatrix_masks(matrix, k)[0]
    return histogram_from_masks(masks, k)


def histogram_from_masks(masks: np.ndarray, k: int) -> PatternHistogram:
    """Build the pattern histogram from precomputed submatrix masks.

    The second half of Algorithm 2, split out so a pipeline stage that
    already holds the :func:`submatrix_masks` output (and passes it on to
    the encoder) does not recompute it.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size == 0:
        return PatternHistogram(
            k, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
    patterns, freqs = np.unique(masks, return_counts=True)
    order = np.lexsort((patterns, -freqs))
    return PatternHistogram(
        k, patterns[order].astype(np.int64), freqs[order].astype(np.int64)
    )


def first_of_run(keys_sorted: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values.

    ``keys_sorted`` must already be sorted (non-decreasing), as every
    caller's keys are after their one ordering sort; ``np.unique`` would
    sort them a second time.  ``np.flatnonzero`` of the mask gives the
    run starts and ``np.cumsum(mask) - 1`` the run of every element.
    """
    first = np.empty(keys_sorted.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=first[1:])
    return first


def submatrix_masks(matrix: COOMatrix, k: int = DEFAULT_K) -> tuple:
    """Occupancy masks of all non-empty k-by-k submatrices.

    Returns
    -------
    (masks, keys, nnz, order):
        ``masks[i]`` is the bitmask of the submatrix with row-major key
        ``keys[i]`` (``key = subrow * nsubcols + subcol``) and ``nnz[i]``
        its number of stored entries; all sorted by key.  ``order`` is
        the entry permutation that groups the nonzeros by submatrix in
        that key order (stable: entries of one submatrix keep their
        stored order), so submatrix ``i`` owns
        ``order[sum(nnz[:i]):][:nnz[i]]``.  The encoder reuses it rather
        than sorting the nonzeros again.

    Raises
    ------
    ValueError:
        If a coordinate is stored twice (a ``dedup=False`` matrix): the
        pipeline's ``coo`` artifact is deduplicated COO, and a second
        entry at one cell would be silently dropped by the encoder.
        Detected without another sort: such a submatrix holds more
        entries than its mask has bits.
    """
    nsubcols = -(-matrix.shape[1] // k)
    sub_r = matrix.rows // k
    sub_c = matrix.cols // k
    bit = (matrix.rows % k) * k + (matrix.cols % k)
    keys = sub_r * nsubcols + sub_c
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    bits_sorted = np.int64(1) << bit[order].astype(np.int64)
    starts = np.flatnonzero(first_of_run(keys_sorted))
    masks = np.bitwise_or.reduceat(bits_sorted, starts)
    nnz = np.diff(starts, append=order.size)
    dup = np.flatnonzero(nnz > popcount_array(masks))
    if dup.size:
        # Name the first repeated cell of the first such submatrix.
        entries = order[starts[dup[0]]:][:nnz[dup[0]]]
        __, first, counts = np.unique(
            bit[entries], return_index=True, return_counts=True
        )
        entry = entries[first[np.argmax(counts > 1)]]
        raise ValueError(
            "duplicate coordinate "
            f"({int(matrix.rows[entry])}, {int(matrix.cols[entry])}): "
            "the matrix must be deduplicated COO (build it with "
            "dedup=True to sum duplicates)"
        )
    return masks, keys_sorted[starts], nnz, order
