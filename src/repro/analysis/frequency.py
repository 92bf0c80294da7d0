"""Pattern frequency analyses behind Figures 2 and 3."""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.patterns import PatternHistogram, analyze_local_patterns


def top_pattern_report(name: str, histogram: PatternHistogram,
                       n: int = 8) -> str:
    """Figure 2 style report: the top-n patterns with ASCII art."""
    header = (
        f"{name}: {histogram.total} non-empty submatrices, "
        f"{histogram.n_distinct} distinct patterns, "
        f"top-{n} covers {histogram.coverage_of_top(n) * 100:.2f}%"
    )
    return header + "\n" + histogram.describe_top(n)


def pattern_cdf_table(matrices, top_ns=(1, 2, 4, 8, 16, 32, 64),
                      k: int = 4) -> str:
    """Figure 3 data: CDF of top-n pattern coverage per matrix.

    Parameters
    ----------
    matrices:
        Iterable of ``(name, COOMatrix)``.
    top_ns:
        The n values to tabulate.
    """
    headers = ["matrix"] + [f"top-{n}" for n in top_ns]
    rows = []
    for name, coo in matrices:
        histogram = analyze_local_patterns(coo, k)
        rows.append(
            [name]
            + [histogram.coverage_of_top(n) * 100.0 for n in top_ns]
        )
    return format_table(
        headers, rows, title="CDF of top-n local patterns (%)", precision=1
    )
