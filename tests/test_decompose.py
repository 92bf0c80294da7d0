"""Tests for pattern decomposition (paper Listing 1 + the table solver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmask import diag_mask, full_mask, row_mask
from repro.core.decompose import (
    Decomposition,
    DecompositionError,
    DecompositionTable,
    find_best_decomp,
)
from repro.core.templates import candidate_portfolios


@pytest.fixture(scope="module")
def portfolio0():
    return candidate_portfolios()[0]


@pytest.fixture(scope="module")
def table0(portfolio0):
    return DecompositionTable(portfolio0)


class TestBruteForce:
    def test_exact_template_match(self):
        templates = [row_mask(r, 4) for r in range(4)]
        subset, padding = find_best_decomp(row_mask(1, 4), templates)
        assert subset == 0b0010
        assert padding == 0

    def test_single_cell_costs_3(self):
        templates = [row_mask(r, 4) for r in range(4)]
        __, padding = find_best_decomp(1, templates)
        assert padding == 3

    def test_full_grid_costs_0(self):
        templates = [row_mask(r, 4) for r in range(4)]
        subset, padding = find_best_decomp(full_mask(4), templates)
        assert subset == 0b1111
        assert padding == 0

    def test_prefers_fewer_templates(self):
        # pattern = main diagonal; diag template matches exactly, rows
        # would cost 12 paddings.
        templates = [row_mask(r, 4) for r in range(4)] + [diag_mask(0, 4)]
        subset, padding = find_best_decomp(diag_mask(0, 4), templates)
        assert subset == 0b10000
        assert padding == 0

    def test_uncoverable_raises(self):
        with pytest.raises(DecompositionError):
            find_best_decomp(1 << 15, [row_mask(0, 4)])

    def test_empty_pattern(self):
        subset, padding = find_best_decomp(0, [row_mask(0, 4)])
        assert subset == 0
        assert padding == 0

    def test_overlap_counted_as_padding(self):
        # pattern needs row 0 and column 0; they overlap at cell (0,0).
        from repro.core.bitmask import col_mask

        pattern = row_mask(0, 4) | col_mask(0, 4)
        templates = [row_mask(0, 4), col_mask(0, 4)]
        __, padding = find_best_decomp(pattern, templates)
        assert padding == 1  # 8 slots for 7 distinct cells


class TestTableSolver:
    def test_matches_brute_force_on_small_set(self):
        templates = [row_mask(0, 4), row_mask(1, 4), diag_mask(0, 4),
                     diag_mask(2, 4)]
        table = DecompositionTable(templates, k=4)
        rng = np.random.default_rng(0)
        coverable_union = 0
        for t in templates:
            coverable_union |= t
        for __ in range(200):
            pattern = int(rng.integers(0, 1 << 16)) & coverable_union
            expected = find_best_decomp(pattern, templates)[1] if pattern else 0
            assert table.padding(pattern) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=0xFFFF))
    def test_matches_brute_force_portfolio4(self, pattern):
        portfolio = candidate_portfolios()[4]
        table = DecompositionTable(portfolio)
        __, expected = find_best_decomp(pattern, portfolio.masks)
        assert table.padding(pattern) == expected

    def test_all_patterns_coverable_by_candidates(self):
        for portfolio in candidate_portfolios():
            table = DecompositionTable(portfolio)
            pads = table.padding_array(np.arange(1, 1 << 16))
            assert np.all(pads >= 0)

    def test_padding_formula(self, table0):
        # For fixed-length-4 templates: padding = 4*n_templates - |p|.
        decomp = table0.decompose(0b1)
        assert decomp.padding == 4 * len(decomp.template_ids) - 1

    def test_decompose_covers_pattern(self, portfolio0, table0):
        rng = np.random.default_rng(3)
        for __ in range(100):
            pattern = int(rng.integers(1, 1 << 16))
            decomp = table0.decompose(pattern)
            union = 0
            for t_idx in decomp.template_ids:
                union |= portfolio0.masks[t_idx]
            assert pattern & ~union == 0

    def test_empty_pattern(self, table0):
        decomp = table0.decompose(0)
        assert decomp.template_ids == ()
        assert decomp.padding == 0

    def test_subset_array_empty_is_zero(self, table0):
        assert table0.subset_array(np.array([0]))[0] == 0

    def test_uncoverable_raises(self):
        table = DecompositionTable([row_mask(0, 4)], k=4)
        with pytest.raises(DecompositionError):
            table.padding(1 << 15)
        with pytest.raises(DecompositionError):
            table.padding_array(np.array([1 << 15]))
        assert not table.coverable(1 << 15)
        assert table.coverable(0b1111)

    def test_rejects_empty_template_set(self):
        with pytest.raises(DecompositionError):
            DecompositionTable([], k=4)

    def test_total_padding_weighted(self, table0):
        histogram = {0b1: 10, full_mask(4): 2}
        expected = 10 * table0.padding(0b1) + 2 * table0.padding(
            full_mask(4)
        )
        assert table0.total_padding(histogram.items()) == expected

    def test_total_padding_empty(self, table0):
        assert table0.total_padding([]) == 0

    def test_k2(self):
        portfolio = candidate_portfolios(2)[0]
        table = DecompositionTable(portfolio)
        assert table.padding(0b1) == 1  # one 2-cell template, 1 pad

    def test_padding_array_matches_scalar(self, table0):
        patterns = np.arange(1, 512)
        pads = table0.padding_array(patterns)
        for i in (0, 100, 510):
            assert pads[i] == table0.padding(int(patterns[i]))


class TestDecompositionDataclass:
    def test_subset_bitmask(self):
        decomp = Decomposition(0b1, (0, 2), 3)
        assert decomp.subset == 0b101
