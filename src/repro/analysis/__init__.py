"""Result analysis: ASCII rendering, tabulation and paper-shape checks."""

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.gantt import gantt_chart
from repro.analysis.compare import CheckResult, check_figure
from repro.analysis.queueing import (
    erlang_c,
    mm1_mean_sojourn,
    mm1_mean_wait,
    mmc_mean_sojourn,
    mmc_mean_wait,
)
from repro.analysis.tables import format_table, write_csv

__all__ = [
    "ascii_plot",
    "format_table",
    "write_csv",
    "CheckResult",
    "check_figure",
    "erlang_c",
    "mm1_mean_sojourn",
    "mm1_mean_wait",
    "mmc_mean_sojourn",
    "mmc_mean_wait",
    "gantt_chart",
]
