"""Terminal bar and line charts for the figure benchmarks.

The paper's figures are bar charts and CDF curves; these helpers render
the same series as text so the benchmark output reads like the figure,
not just its data table.
"""

from __future__ import annotations

import math


def bar_chart(labels, values, width: int = 50, title: str = "",
              unit: str = "", log: bool = False) -> str:
    """Horizontal bar chart.

    Parameters
    ----------
    labels, values:
        Parallel sequences; values must be non-negative (and positive
        when ``log``).
    width:
        Maximum bar width in characters.
    log:
        Scale bars by log10 (for series spanning decades).
    """
    labels = [str(label) for label in labels]
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels and values must be parallel")
    if not values:
        return title
    if log and any(v <= 0 for v in values):
        raise ValueError("log scale needs positive values")
    if any(v < 0 for v in values):
        raise ValueError("bar chart needs non-negative values")

    def scale(v):
        return math.log10(v) if log else v

    top = max(scale(v) for v in values)
    bottom = min(scale(v) for v in values) if log else 0.0
    span = top - bottom or 1.0
    label_w = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        frac = (scale(value) - bottom) / span
        bar = "#" * max(int(round(frac * width)), 1 if value > 0 else 0)
        lines.append(
            f"{label:>{label_w}} | {bar} {value:.2f}{unit}"
        )
    return "\n".join(lines)


def line_chart(series, width: int = 60, height: int = 12,
               title: str = "", x_labels=None) -> str:
    """Multi-series line (scatter) chart on a character grid.

    ``series`` is ``{name: [y values]}``; all series share the x axis
    (their indices).  Each series plots with its own glyph.
    """
    glyphs = "*o+x@%"
    series = {str(k): [float(v) for v in vals]
              for k, vals in series.items()}
    if not series:
        return title
    n = max(len(vals) for vals in series.values())
    if n < 2:
        raise ValueError("line chart needs at least two points")
    all_values = [v for vals in series.values() for v in vals]
    top, bottom = max(all_values), min(all_values)
    span = top - bottom or 1.0

    grid = [[" "] * width for __ in range(height)]
    for s_idx, (name, vals) in enumerate(series.items()):
        glyph = glyphs[s_idx % len(glyphs)]
        for i, v in enumerate(vals):
            x = int(round(i * (width - 1) / (n - 1)))
            y = int(round((top - v) / span * (height - 1)))
            grid[y][x] = glyph

    lines = [title] if title else []
    lines.append(f"{top:10.2f} ┐")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{bottom:10.2f} ┘")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    if x_labels is not None:
        lines.append(" " * 12 + " .. ".join(str(v) for v in x_labels))
    return "\n".join(lines)
