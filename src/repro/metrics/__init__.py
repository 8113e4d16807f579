"""Metrics: cost breakdowns, time series, and report rendering."""

from repro.metrics.breakdown import CostBreakdown
from repro.metrics.series import LatencyHistogram, TimeSeries, percentile
from repro.metrics.report import (
    render_counters,
    render_series_table,
    render_slo_table,
    render_table,
    render_timeline,
)

__all__ = [
    "CostBreakdown",
    "LatencyHistogram",
    "TimeSeries",
    "percentile",
    "render_counters",
    "render_series_table",
    "render_slo_table",
    "render_table",
    "render_timeline",
]
