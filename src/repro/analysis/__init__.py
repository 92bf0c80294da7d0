"""Analysis and reporting: the metric and table machinery behind every
reproduced figure and table of the paper's evaluation section."""

from repro.analysis.metrics import (
    geomean,
    speedup_summary,
    throughput_table,
    utilization_table,
    energy_table,
)
from repro.analysis.frequency import pattern_cdf_table, top_pattern_report
from repro.analysis.storage_compare import (
    suite_storage_reports,
    storage_summary,
)
from repro.analysis.report import format_table
from repro.analysis.charts import bar_chart, line_chart
from repro.analysis.spy import spy, spy_with_border

__all__ = [
    "geomean",
    "speedup_summary",
    "throughput_table",
    "utilization_table",
    "energy_table",
    "pattern_cdf_table",
    "top_pattern_report",
    "suite_storage_reports",
    "storage_summary",
    "format_table",
    "bar_chart",
    "line_chart",
    "spy",
    "spy_with_border",
]
