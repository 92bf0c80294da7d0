"""Local pattern decomposition (paper Section IV-A, Listing 1).

Decomposing a local pattern means choosing a subset of the portfolio's
templates whose union covers every non-zero cell of the pattern; every
covered cell that is *not* a pattern cell — and every pattern cell covered
a second time — is a zero *padding*.  Walking Listing 1's accumulation,
the padding of a covering subset ``S`` is exactly

    padding(S) = sum(|t| for t in S) - |pattern|

because each pattern cell is charged only the first time a template covers
it.  Minimizing padding is therefore a minimum-weight set-cover with
weight ``|t|`` (a constant ``k`` for SPASM's fixed-length templates).

Two solvers are provided:

* :func:`find_best_decomp` — the paper's Listing 1 brute force over all
  ``2^n`` template subsets, kept as the executable reference.
* :class:`DecompositionTable` — an exact table: subsets are grouped by
  coverage union, then a superset-min (sum-over-subsets) DP propagates the
  cheapest covering subset to every one of the ``2^(k*k)`` patterns.
  After the one-off precomputation every decomposition is an O(1) lookup,
  which is what makes whole-matrix decomposition (step ③) tractable.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Tuple

import numpy as np

from repro.core.bitmask import DEFAULT_K, popcount, popcount_array
from repro.core.templates import Portfolio


class DecompositionError(ValueError):
    """Raised when a pattern cannot be covered by the given templates."""


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """Result of decomposing one local pattern.

    Attributes
    ----------
    pattern:
        The decomposed local pattern mask.
    template_ids:
        Sorted tuple of portfolio ``t_idx`` values used.
    padding:
        Number of zero paddings introduced.
    """

    pattern: int
    template_ids: tuple
    padding: int

    @property
    def subset(self) -> int:
        """The template subset as a bitmask over t_idx."""
        mask = 0
        for t_idx in self.template_ids:
            mask |= 1 << t_idx
        return mask


def _subset_ids(subset: int) -> tuple:
    """Expand a subset bitmask into sorted template ids."""
    ids = []
    t_idx = 0
    while subset:
        if subset & 1:
            ids.append(t_idx)
        subset >>= 1
        t_idx += 1
    return tuple(ids)


# The Listing 1 oracle for DecompositionTable
# (tests/test_property_random.py::TestPortfolioInvariants::
#  test_table_matches_brute_force).
def find_best_decomp(pattern: int,  # lint: allow(api.unused-public)
                     templates) -> tuple:
    """Paper Listing 1: brute-force search over all template subsets.

    Parameters
    ----------
    pattern:
        Local pattern bitmask.
    templates:
        Sequence of template masks (ints) or :class:`Template` objects.

    Returns
    -------
    (best_subset, best_num_paddings):
        ``best_subset`` is a bitmask over template indices.  Unlike the
        paper's listing (which would trivially return the empty subset),
        only subsets that fully cover the pattern are considered; this is
        the intended semantics — an uncovered non-zero cannot be computed.

    Raises
    ------
    DecompositionError:
        If no subset covers the pattern.
    """
    masks = [getattr(t, "mask", t) for t in templates]
    n = len(masks)
    best_num_paddings = None
    best_decomp = None
    for subset in range(1 << n):
        remain = pattern
        overlap = 0
        num_padding = 0
        for t_id in range(n):
            if subset & (1 << t_id):
                tmask = masks[t_id]
                padding = (~remain | overlap) & tmask
                overlap |= tmask
                remain &= ~tmask
                num_padding += popcount(padding)
        if remain:
            continue  # subset does not cover the pattern
        if best_num_paddings is None or num_padding < best_num_paddings:
            best_num_paddings = num_padding
            best_decomp = subset
    if best_decomp is None:
        raise DecompositionError(
            f"pattern {pattern:#x} is not coverable by the given templates"
        )
    return best_decomp, best_num_paddings


class DecompositionTable:
    """Exact decomposition of *every* k*k-bit pattern against a portfolio.

    The table is built once per portfolio in O(2^n + k*k * 2^(k*k))
    vectorized work (n = number of templates) and then answers
    ``decompose(pattern)`` in O(1).

    Parameters
    ----------
    portfolio:
        The template portfolio (or any sequence of template masks).
    k:
        Local pattern size; inferred from a :class:`Portfolio` argument.
    """

    def __init__(self, portfolio, k: int = None):
        if isinstance(portfolio, Portfolio):
            masks = list(portfolio.masks)
            k = portfolio.k
        else:
            masks = [getattr(t, "mask", t) for t in portfolio]
            if k is None:
                k = DEFAULT_K
        if not masks:
            raise DecompositionError("empty template set")
        self.k = k
        self.masks = tuple(int(m) for m in masks)
        self._build()

    def _build(self) -> None:
        n = len(self.masks)
        cell_bits = self.k * self.k
        nsubsets = 1 << n
        npatterns = 1 << cell_bits

        # Union and weight of every template subset, built incrementally:
        # subsets of templates[0:t+1] with bit t set are subsets of
        # templates[0:t] shifted up by 2^t.
        union = np.zeros(nsubsets, dtype=np.uint32)
        weight = np.zeros(nsubsets, dtype=np.int32)
        for t_id, tmask in enumerate(self.masks):
            m = 1 << t_id
            union[m : 2 * m] = union[:m] | np.uint32(tmask)
            weight[m : 2 * m] = weight[:m] + popcount(tmask)

        # Cheapest subset achieving each union value.
        big = np.iinfo(np.int32).max
        best_weight = np.full(npatterns, big, dtype=np.int32)
        best_subset = np.zeros(npatterns, dtype=np.int64)
        # Process subsets from heaviest to lightest so the last write per
        # union is the lightest subset (stable tie-break: lowest subset id).
        order = np.lexsort((np.arange(nsubsets), weight))[::-1]
        best_weight[union[order]] = weight[order]
        best_subset[union[order]] = order

        # Superset-min DP: propagate each union's cost to all its subsets
        # (a pattern p is covered by any subset whose union is a superset
        # of p).
        for bit in range(cell_bits):
            step = 1 << bit
            low = best_weight.reshape(-1, 2, step)
            low_s = best_subset.reshape(-1, 2, step)
            improve = low[:, 1, :] < low[:, 0, :]
            low[:, 0, :] = np.where(improve, low[:, 1, :], low[:, 0, :])
            low_s[:, 0, :] = np.where(improve, low_s[:, 1, :], low_s[:, 0, :])

        self._cover_weight = best_weight
        self._cover_subset = best_subset
        self._big = big

    @property
    def n_templates(self) -> int:
        """Number of templates in the portfolio."""
        return len(self.masks)

    def cover_count_array(self, sentinel: int = None) -> np.ndarray:
        """Minimum number of templates covering each possible pattern.

        Index the returned array by pattern mask; uncoverable patterns
        hold ``sentinel`` (default: a value larger than any real count).
        With SPASM's fixed-length templates the padding of pattern ``p``
        is ``k * count[p] - popcount(p)``, so this array is the whole
        cost structure — the greedy portfolio builder
        (:mod:`repro.core.dynamic`) leans on it.
        """
        if sentinel is None:
            sentinel = self.k * self.k + 1
        counts = np.where(
            self._cover_weight == self._big,
            sentinel,
            self._cover_weight // self.k,
        ).astype(np.int64)
        counts[0] = 0
        return counts

    def coverable(self, pattern: int) -> bool:
        """Whether the portfolio can decompose ``pattern``."""
        return bool(self._cover_weight[pattern] != self._big)

    def padding(self, pattern: int) -> int:
        """Minimal number of paddings for ``pattern``."""
        w = self._cover_weight[pattern]
        if w == self._big:
            raise DecompositionError(
                f"pattern {pattern:#x} is not coverable by this portfolio"
            )
        if pattern == 0:
            return 0
        return int(w) - popcount(pattern)

    def padding_array(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`padding` (empty patterns cost 0)."""
        patterns = np.asarray(patterns, dtype=np.int64)
        weights = self._cover_weight[patterns]
        if np.any(weights == self._big):
            bad = patterns[weights == self._big][0]
            raise DecompositionError(
                f"pattern {bad:#x} is not coverable by this portfolio"
            )
        pads = weights.astype(np.int64) - popcount_array(patterns)
        return np.where(patterns == 0, 0, pads)

    def subset_array(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized optimal subset lookup (0 for the empty pattern)."""
        patterns = np.asarray(patterns, dtype=np.int64)
        weights = self._cover_weight[patterns]
        if np.any(weights == self._big):
            bad = patterns[weights == self._big][0]
            raise DecompositionError(
                f"pattern {bad:#x} is not coverable by this portfolio"
            )
        return np.where(patterns == 0, 0, self._cover_subset[patterns])

    def decompose(self, pattern: int) -> Decomposition:
        """Optimal decomposition of one pattern."""
        if pattern == 0:
            return Decomposition(0, (), 0)
        subset = int(self.subset_array(np.asarray([pattern]))[0])
        return Decomposition(
            pattern, _subset_ids(subset), self.padding(pattern)
        )

    def total_padding(self, histogram) -> int:
        """Frequency-weighted total padding over a pattern histogram.

        ``histogram`` is a :class:`repro.core.patterns.PatternHistogram`
        (scored straight from its ``patterns``/``frequencies`` arrays),
        any other mapping of pattern mask -> occurrence count, or an
        iterable of ``(pattern, count)`` pairs.
        """
        patterns = getattr(histogram, "patterns", None)
        if patterns is None:
            items = getattr(histogram, "items", None)
            pairs = np.array(
                list(items() if items else histogram), dtype=np.int64
            ).reshape(-1, 2)
            patterns, freqs = pairs[:, 0], pairs[:, 1]
        else:
            freqs = histogram.frequencies
        return int((self.padding_array(patterns) * freqs).sum())


# ----------------------------------------------------------------------
# process-wide table cache
# ----------------------------------------------------------------------

_TABLE_CACHE: Dict[Tuple[int, Tuple[int, ...]], DecompositionTable] = {}
_TABLE_CACHE_LOCK = threading.Lock()


def _table_key(portfolio, k=None) -> Tuple[int, Tuple[int, ...]]:
    """The (k, masks) digest a portfolio's table is keyed by."""
    if isinstance(portfolio, Portfolio):
        return (int(portfolio.k),
                tuple(int(m) for m in portfolio.masks))
    masks = tuple(int(getattr(t, "mask", t)) for t in portfolio)
    return (int(k) if k is not None else DEFAULT_K, masks)


def cached_table(portfolio, k: int = None) -> DecompositionTable:
    """A shared :class:`DecompositionTable` for this portfolio.

    Building a table costs O(k*k * 2^(k*k)) vectorized work — enough to
    dominate small-matrix compiles when rebuilt per call.  Tables are
    immutable after construction, so one instance per distinct
    ``(k, template masks)`` pair serves the whole process; repeated
    compiles, selection sweeps and ``encode_spasm(table=None)`` calls
    all hit the same entry.
    """
    key = _table_key(portfolio, k)
    with _TABLE_CACHE_LOCK:
        table = _TABLE_CACHE.get(key)
    if table is None:
        built = DecompositionTable(portfolio, k=k)
        with _TABLE_CACHE_LOCK:
            table = _TABLE_CACHE.setdefault(key, built)
    return table
