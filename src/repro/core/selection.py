"""Step ② — template pattern selection (paper Algorithm 3).

Given the local pattern histogram, every candidate portfolio is scored by
the frequency-weighted total padding of decomposing the top-n patterns
(the paper's preprocessing shortcut: the top-n patterns carry most of the
mass, so scoring them ranks portfolios almost as well as scoring all
patterns, far faster).  The portfolio with the least padding wins.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.decompose import (
    DecompositionError,
    DecompositionTable,
    cached_table,
)
from repro.core.patterns import PatternHistogram
from repro.core.templates import Portfolio, candidate_portfolios


@dataclasses.dataclass(frozen=True)
class SelectionResult:
    """Outcome of template pattern selection.

    Attributes
    ----------
    portfolio:
        The winning :class:`Portfolio`.
    table:
        The winner's pre-built :class:`DecompositionTable` (reused by the
        subsequent decomposition step).
    paddings:
        Candidate name -> frequency-weighted padding on the scored
        sub-histogram (``inf`` for candidates that could not cover some
        scored pattern).
    scored_patterns:
        Number of distinct patterns actually scored (the top-n).
    """

    portfolio: Portfolio
    table: DecompositionTable
    paddings: dict
    scored_patterns: int

    @property
    def ranking(self) -> list:
        """Candidate names sorted best (least padding) first."""
        return sorted(self.paddings, key=lambda name: self.paddings[name])


def select_portfolio(histogram: PatternHistogram, candidates=None,
                     top_n: int = None,
                     coverage: float = None) -> SelectionResult:
    """Paper Algorithm 3: pick the portfolio minimizing weighted padding.

    Parameters
    ----------
    histogram:
        Local pattern histogram from step ①.
    candidates:
        Iterable of :class:`Portfolio`; defaults to the ten Table V
        candidates for the histogram's pattern size.
    top_n:
        Score only the top-n most frequent patterns.
    coverage:
        Alternative to ``top_n``: score the smallest top-n subset whose
        frequency mass reaches this fraction (e.g. ``0.9``).  When neither
        is given, all observed patterns are scored.
    """
    if candidates is None:
        candidates = candidate_portfolios(histogram.k)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate portfolios supplied")
    if top_n is not None and coverage is not None:
        raise ValueError("give top_n or coverage, not both")

    if coverage is not None:
        scored = histogram.top_fraction(coverage)
    elif top_n is not None:
        scored = histogram.top(top_n)
    else:
        scored = histogram

    paddings = {}
    best = None
    for portfolio in candidates:
        if portfolio.k != histogram.k:
            raise ValueError(
                f"portfolio {portfolio.name} has k={portfolio.k} but the "
                f"histogram was built with k={histogram.k}"
            )
        table = cached_table(portfolio)
        try:
            total = table.total_padding(scored)
        except DecompositionError:
            paddings[portfolio.name] = float("inf")
            continue
        paddings[portfolio.name] = total
        if best is None or total < best[0]:
            best = (total, portfolio, table)

    if best is None:
        raise DecompositionError(
            "no candidate portfolio covers the scored patterns"
        )
    __, portfolio, table = best
    return SelectionResult(
        portfolio=portfolio,
        table=table,
        paddings=paddings,
        scored_patterns=scored.n_distinct,
    )


def merge_histograms(histograms) -> PatternHistogram:
    """Frequency-sum several pattern histograms (same k).

    The merged histogram is what Algorithm 3 scores when a portfolio
    must serve a *set* of expected input matrices — the paper's
    deployment story: customize once for the expected workload mix,
    then run anything (with reduced performance on mismatches).
    """
    histograms = list(histograms)
    if not histograms:
        raise ValueError("no histograms to merge")
    k = histograms[0].k
    if any(h.k != k for h in histograms):
        raise ValueError("histograms disagree on the pattern size k")
    patterns, pattern_of = np.unique(
        np.concatenate([h.patterns for h in histograms]),
        return_inverse=True,
    )
    freqs = np.bincount(
        pattern_of,
        weights=np.concatenate([h.frequencies for h in histograms]),
        minlength=patterns.size,
    ).astype(np.int64)
    order = np.lexsort((patterns, -freqs))
    return PatternHistogram(
        k, patterns[order].astype(np.int64), freqs[order]
    )


def select_portfolio_for_set(histograms, candidates=None,
                             top_n: int = None,
                             coverage: float = None) -> SelectionResult:
    """Algorithm 3 over a workload *set*: one portfolio for many
    matrices, scored on their merged pattern histogram."""
    return select_portfolio(
        merge_histograms(histograms),
        candidates=candidates,
        top_n=top_n,
        coverage=coverage,
    )


def padding_rate(histogram: PatternHistogram,
                 portfolio: Portfolio) -> float:
    """Padding rate of decomposing an entire histogram with a portfolio.

    Defined as padding / stored slots (Section V-B's ``padding_rate``):
    ``stored = nnz + padding``.
    """
    table = cached_table(portfolio)
    total_padding = table.total_padding(histogram)
    freqs = histogram.frequencies
    nnz = int((histogram.nnz_per_pattern() * freqs).sum())
    stored = nnz + total_padding
    return total_padding / stored if stored else 0.0


def storage_bytes_estimate(histogram: PatternHistogram,
                           portfolio: Portfolio,
                           value_bytes: int = 4) -> int:
    """SPASM storage cost implied by a histogram + portfolio choice.

    Every group stores ``k`` values and one position word:
    ``groups * (k + 1) * 4`` bytes, with
    ``groups = (nnz + padding) / k``.
    """
    table = cached_table(portfolio)
    total_padding = table.total_padding(histogram)
    freqs = histogram.frequencies
    nnz = int((histogram.nnz_per_pattern() * freqs).sum())
    slots = nnz + total_padding
    assert slots % histogram.k == 0, "slots must be whole groups"
    groups = slots // histogram.k
    return groups * (histogram.k + 1) * value_bytes
