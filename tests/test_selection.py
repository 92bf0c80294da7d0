"""Tests for template pattern selection (paper Algorithm 3)."""

import numpy as np
import pytest

from repro.core import analyze_local_patterns, select_portfolio
from repro.core.selection import padding_rate, storage_bytes_estimate
from repro.core.templates import build_portfolio, candidate_portfolios
from repro.synth import generators as g


class TestSelectPortfolio:
    def test_antidiag_matrix_selects_antidiag_portfolio(self):
        coo = g.anti_diagonal_stripes(128, (0, 33, -47), fill=1.0, seed=0)
        hist = analyze_local_patterns(coo)
        result = select_portfolio(hist)
        kinds = {t.kind for t in result.portfolio}
        assert "ADIAG" in kinds

    def test_diag_matrix_selects_diag_portfolio(self):
        coo = g.diagonal_stripes(128, (0, 17), fill=1.0, seed=0)
        hist = analyze_local_patterns(coo)
        result = select_portfolio(hist)
        kinds = {t.kind for t in result.portfolio}
        assert "DIAG" in kinds

    def test_block_matrix_zero_padding_winner(self, block_diag_coo):
        hist = analyze_local_patterns(block_diag_coo)
        result = select_portfolio(hist)
        assert result.paddings[result.portfolio.name] == 0

    def test_winner_has_min_padding(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        result = select_portfolio(hist)
        best = min(result.paddings.values())
        assert result.paddings[result.portfolio.name] == best

    def test_ranking_sorted(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        result = select_portfolio(hist)
        values = [result.paddings[name] for name in result.ranking]
        assert values == sorted(values)

    def test_top_n_restricts_scoring(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        result = select_portfolio(hist, top_n=3)
        assert result.scored_patterns <= 3

    def test_coverage_shortcut(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        result = select_portfolio(hist, coverage=0.5)
        assert result.scored_patterns <= hist.n_distinct

    def test_rejects_both_topn_and_coverage(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        with pytest.raises(ValueError):
            select_portfolio(hist, top_n=3, coverage=0.5)

    def test_rejects_empty_candidates(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        with pytest.raises(ValueError):
            select_portfolio(hist, candidates=[])

    def test_rejects_k_mismatch(self, small_coo):
        hist = analyze_local_patterns(small_coo, k=2)
        with pytest.raises(ValueError):
            select_portfolio(hist, candidates=candidate_portfolios(4))

    def test_table_reusable(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        result = select_portfolio(hist)
        # The returned table answers decompositions for the winner.
        pattern = int(hist.patterns[0])
        assert result.table.padding(pattern) >= 0

    def test_custom_candidates(self, block_diag_coo):
        hist = analyze_local_patterns(block_diag_coo)
        only = build_portfolio("rw+cw", name="rows-cols")
        result = select_portfolio(hist, candidates=[only])
        assert result.portfolio.name == "rows-cols"


class TestSetSelection:
    def test_merge_sums_frequencies(self, block_diag_coo):
        from repro.core.selection import merge_histograms

        hist = analyze_local_patterns(block_diag_coo)
        merged = merge_histograms([hist, hist])
        assert merged.total == 2 * hist.total
        assert merged.n_distinct == hist.n_distinct

    def test_merge_orders_ties_by_mask(self):
        from repro.core.patterns import PatternHistogram
        from repro.core.selection import merge_histograms

        def hist(patterns, freqs):
            return PatternHistogram(
                4, np.array(patterns, dtype=np.int64),
                np.array(freqs, dtype=np.int64),
            )

        merged = merge_histograms([
            hist([0x00F0, 0x000F, 0x1111], [3, 2, 1]),
            hist([0x1111, 0x000F, 0x8421], [4, 1, 3]),
        ])
        # Totals 0x1111:5, then a three-way tie at 3 ordered by mask.
        assert merged.patterns.tolist() == [0x1111, 0x000F, 0x00F0, 0x8421]
        assert merged.frequencies.tolist() == [5, 3, 3, 3]
        assert merged.patterns.dtype == merged.frequencies.dtype == np.int64

    def test_merge_disjoint_pattern_sets(self, block_diag_coo):
        from repro.core.selection import merge_histograms

        blocks = analyze_local_patterns(block_diag_coo)
        stripes = analyze_local_patterns(
            g.diagonal_stripes(128, (0, 17), fill=1.0, seed=0)
        )
        assert not set(blocks.patterns) & set(stripes.patterns)
        merged = merge_histograms([blocks, stripes])
        assert merged.total == blocks.total + stripes.total
        assert merged.n_distinct == blocks.n_distinct + stripes.n_distinct
        expected = dict(blocks.items())
        expected.update(stripes.items())
        assert dict(merged.items()) == expected
        # Most frequent first, ties by ascending mask.
        keys = list(zip(-merged.frequencies, merged.patterns))
        assert keys == sorted(keys)

    def test_merge_rejects_empty(self):
        from repro.core.selection import merge_histograms

        with pytest.raises(ValueError):
            merge_histograms([])

    def test_merge_rejects_k_mismatch(self, small_coo):
        from repro.core.selection import merge_histograms

        with pytest.raises(ValueError):
            merge_histograms([
                analyze_local_patterns(small_coo, 2),
                analyze_local_patterns(small_coo, 4),
            ])

    def test_set_selection_compromises(self):
        from repro.core.selection import select_portfolio_for_set

        diag = g.diagonal_stripes(128, (0, 17), fill=1.0, seed=0)
        adiag = g.anti_diagonal_stripes(128, (0, 33), fill=1.0, seed=1)
        h_diag = analyze_local_patterns(diag)
        h_adiag = analyze_local_patterns(adiag)
        shared = select_portfolio_for_set([h_diag, h_adiag]).portfolio
        kinds = {t.kind for t in shared}
        # The shared portfolio must serve both pattern families.
        assert "DIAG" in kinds and "ADIAG" in kinds

    def test_single_histogram_reduces_to_plain_selection(self,
                                                         small_coo):
        from repro.core.selection import select_portfolio_for_set

        hist = analyze_local_patterns(small_coo)
        assert (
            select_portfolio_for_set([hist]).portfolio.name
            == select_portfolio(hist).portfolio.name
        )


class TestDerivedMetrics:
    def test_padding_rate_zero_for_pure_blocks(self, block_diag_coo):
        hist = analyze_local_patterns(block_diag_coo)
        portfolio = candidate_portfolios()[0]
        assert padding_rate(hist, portfolio) == 0.0

    def test_padding_rate_bounds(self, small_coo):
        hist = analyze_local_patterns(small_coo)
        rate = padding_rate(hist, candidate_portfolios()[0])
        assert 0.0 <= rate < 1.0

    def test_storage_estimate_matches_formula(self, block_diag_coo):
        hist = analyze_local_patterns(block_diag_coo)
        portfolio = candidate_portfolios()[0]
        estimate = storage_bytes_estimate(hist, portfolio)
        # zero padding: nnz/4 groups of 20 bytes
        assert estimate == block_diag_coo.nnz // 4 * 20

    def test_storage_estimate_matches_encoding(self, small_coo):
        from repro.core import encode_spasm

        hist = analyze_local_patterns(small_coo)
        portfolio = candidate_portfolios()[0]
        estimate = storage_bytes_estimate(hist, portfolio)
        spasm = encode_spasm(small_coo, portfolio, 16)
        assert estimate == spasm.storage_bytes()
