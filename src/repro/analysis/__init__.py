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
from .theory import (
    absence_probability,
    expected_encryptions_per_segment,
    expected_first_round_effort,
    expected_max_geometric,
    flush_advantage,
    growth_factor_per_round,
    monitored_lines,
    practical_probing_round_limit,
    visible_noise_accesses,
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
    "absence_probability",
    "expected_encryptions_per_segment",
    "expected_first_round_effort",
    "expected_max_geometric",
    "flush_advantage",
    "growth_factor_per_round",
    "monitored_lines",
    "practical_probing_round_limit",
    "visible_noise_accesses",
]
