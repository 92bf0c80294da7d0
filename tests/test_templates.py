"""Tests for templates and portfolios (paper Table V)."""

import pytest

from repro.core.bitmask import full_mask, popcount
from repro.core.templates import (
    CANDIDATE_SPECS,
    MAX_TEMPLATES,
    Portfolio,
    PortfolioError,
    Template,
    antidiag_templates,
    block_templates_8,
    block_templates_aligned,
    block_templates_torus,
    build_portfolio,
    candidate_portfolios,
    col_templates,
    diag_templates,
    row_templates,
    template_universe,
)


class TestFamilies:
    @pytest.mark.parametrize(
        "family",
        [row_templates, col_templates, diag_templates, antidiag_templates],
    )
    def test_vector_families_have_k_templates(self, family):
        templates = family(4)
        assert len(templates) == 4
        assert all(popcount(t.mask) == 4 for t in templates)

    def test_aligned_blocks(self):
        templates = block_templates_aligned(4)
        assert len(templates) == 4
        union = 0
        for t in templates:
            assert popcount(t.mask) == 4
            union |= t.mask
        assert union == full_mask(4)

    def test_aligned_blocks_need_even_k(self):
        with pytest.raises(PortfolioError):
            block_templates_aligned(3)

    def test_torus_blocks_distinct(self):
        templates = block_templates_torus(4)
        assert len(templates) == 16
        assert len({t.mask for t in templates}) == 16
        assert all(popcount(t.mask) == 4 for t in templates)

    def test_block8(self):
        templates = block_templates_8(4)
        assert len(templates) == 8
        assert len({t.mask for t in templates}) == 8


class TestPortfolioValidation:
    def test_candidate_count(self):
        assert len(candidate_portfolios()) == len(CANDIDATE_SPECS) == 10

    def test_candidates_valid(self):
        for portfolio in candidate_portfolios():
            assert len(portfolio) <= MAX_TEMPLATES
            union = 0
            for template in portfolio:
                assert popcount(template.mask) == 4
                union |= template.mask
            assert union == full_mask(4)

    def test_candidate_names(self):
        names = [p.name for p in candidate_portfolios()]
        assert names == [f"portfolio-{i}" for i in range(10)]

    @pytest.mark.parametrize("k", [2, 4])
    def test_candidates_built_once_fresh_list(self, k):
        first = candidate_portfolios(k)
        expected = list(first)
        first.pop()
        first.reverse()
        second = candidate_portfolios(k)
        assert second == expected
        assert second is not first
        # The frozen portfolios themselves are shared.
        assert all(a is b for a, b in zip(second, expected))

    def test_rejects_empty(self):
        with pytest.raises(PortfolioError):
            Portfolio((), k=4)

    def test_rejects_too_many(self):
        templates = tuple(
            Template(mask, f"t{i}")
            for i, mask in enumerate(template_universe(4))
        )[:17]
        with pytest.raises(PortfolioError):
            Portfolio(templates, k=4)

    def test_rejects_wrong_length_template(self):
        bad = (Template(0b11, "short"),) + tuple(row_templates(4))
        with pytest.raises(PortfolioError):
            Portfolio(bad, k=4)

    def test_rejects_uncovering_set(self):
        with pytest.raises(PortfolioError):
            Portfolio(tuple(diag_templates(4))[:2], k=4)

    def test_rejects_duplicates(self):
        templates = tuple(row_templates(4)) + (row_templates(4)[0],)
        # duplicates but covering; still rejected
        with pytest.raises(PortfolioError):
            Portfolio(templates, k=4)

    def test_masks_property_order(self):
        portfolio = candidate_portfolios()[0]
        assert portfolio.masks == tuple(
            t.mask for t in portfolio.templates
        )

    def test_describe(self):
        text = candidate_portfolios()[0].describe()
        assert "t_idx= 0" in text


class TestBuildPortfolio:
    def test_spec_parsing(self):
        portfolio = build_portfolio("rw+cw")
        assert len(portfolio) == 8

    def test_unknown_family(self):
        with pytest.raises(PortfolioError):
            build_portfolio("rw+nope")

    def test_portfolio0_is_table_v_row0(self):
        portfolio = build_portfolio("rw+cw+bw4+diag")
        kinds = [t.kind for t in portfolio]
        assert kinds.count("RW") == 4
        assert kinds.count("CW") == 4
        assert kinds.count("BW") == 4
        assert kinds.count("DIAG") == 4


class TestUniverse:
    def test_size_1820(self):
        assert len(list(template_universe(4))) == 1820

    def test_all_masks_have_4_cells(self):
        for mask in template_universe(4):
            assert popcount(mask) == 4

    def test_k2_universe(self):
        assert len(list(template_universe(2))) == 6


class TestOtherPatternSizes:
    def test_k2_candidates_exist(self):
        portfolios = candidate_portfolios(2)
        assert portfolios
        for p in portfolios:
            assert all(popcount(t.mask) == 2 for t in p)

    def test_k3_candidates_exist(self):
        portfolios = candidate_portfolios(3)
        assert portfolios
        for p in portfolios:
            assert all(popcount(t.mask) == 3 for t in p)
