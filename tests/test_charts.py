"""Tests for the terminal chart renderers."""

import pytest

from repro.analysis.charts import bar_chart, line_chart


class TestBarChart:
    def test_basic(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # max value fills the width
        assert lines[0].count("#") == 5

    def test_title_and_unit(self):
        text = bar_chart(["x"], [3.0], title="T", unit=" GF/s")
        assert text.startswith("T\n")
        assert "3.00 GF/s" in text

    def test_labels_aligned(self):
        text = bar_chart(["a", "long"], [1.0, 1.0])
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_log_scale(self):
        text = bar_chart(["a", "b"], [1.0, 1000.0], width=30, log=True)
        lines = text.splitlines()
        assert lines[1].count("#") == 30
        # log floor: smallest value collapses toward zero bars but
        # stays visible.
        assert 0 <= lines[0].count("#") <= 2

    def test_zero_value_no_bar(self):
        text = bar_chart(["z", "a"], [0.0, 1.0])
        assert text.splitlines()[0].count("#") == 0

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [-1.0])

    def test_rejects_log_of_zero(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [0.0], log=True)

    def test_empty(self):
        assert bar_chart([], [], title="empty") == "empty"


class TestLineChart:
    def test_dimensions(self):
        text = line_chart({"s": [0.0, 1.0, 2.0]}, width=20, height=5)
        body = [
            line for line in text.splitlines() if line.startswith(" " * 11 + "|")
        ]
        assert len(body) == 5

    def test_monotone_series_plots_corners(self):
        text = line_chart({"s": [0.0, 10.0]}, width=10, height=4)
        body = [
            line[12:] for line in text.splitlines()
            if line.startswith(" " * 11 + "|")
        ]
        assert body[0].rstrip().endswith("*")  # max at top-right
        assert body[-1].startswith("*")  # min at bottom-left

    def test_legend_lists_series(self):
        text = line_chart({"one": [0, 1], "two": [1, 0]})
        assert "* one" in text and "o two" in text

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            line_chart({"s": [1.0]})

    def test_x_labels(self):
        text = line_chart({"s": [0, 1]}, x_labels=[16, 32])
        assert "16 .. 32" in text
