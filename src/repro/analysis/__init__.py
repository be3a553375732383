"""Analytic effort model, statistics, and the ASCII reporting of engine
records (the experiments themselves run through :mod:`repro.engine`)."""

from .reporting import (
    figure3_series,
    format_count,
    format_table,
    render_figure3,
    render_series,
    render_table1,
    render_table2,
    table1_rows,
    table2_rows,
)
from .statistics import (
    Summary,
    geometric_mean,
    mean,
    mean_confidence_interval,
    median,
    sample_stdev,
)

__all__ = [
    "figure3_series",
    "format_count",
    "format_table",
    "render_figure3",
    "render_series",
    "render_table1",
    "render_table2",
    "table1_rows",
    "table2_rows",
    "Summary",
    "geometric_mean",
    "mean",
    "mean_confidence_interval",
    "median",
    "sample_stdev",
]
