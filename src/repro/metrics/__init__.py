"""Experiment metrics, validity checking and reporting helpers."""

from repro.metrics.ledger import (
    Ledger,
    RoundRecord,
    bits_by_phase,
    messages_by_phase,
    rounds_by_phase,
)
from repro.metrics.report import (
    aggregate_rows,
    format_table,
    mean,
    median,
    percentile,
    summary_stats,
)

__all__ = [
    "Ledger",
    "RoundRecord",
    "bits_by_phase",
    "messages_by_phase",
    "rounds_by_phase",
    "format_table",
    "aggregate_rows",
    "mean",
    "median",
    "percentile",
    "summary_stats",
]
