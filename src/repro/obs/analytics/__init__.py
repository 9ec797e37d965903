"""repro.obs.analytics — post-hoc reductions of run artifacts.

Reads ``TRACE_*.jsonl`` event streams and ``BENCH_*.json`` aggregates: the
resource series of a trace, the append-only run-history registry behind
``repro report trend``, and the static HTML report renderer.  Nothing here
touches a live run — the observation-only contract extends to analytics by
construction (see DESIGN.md, "Analytics invariants").
"""

from repro.obs.analytics.comm import rss_series
from repro.obs.analytics.history import (
    RUNS_FILENAME,
    RUNS_SCHEMA,
    aggregate_digest,
    append_run,
    detect_trends,
    environment_provenance,
    load_runs,
    localize_digest_change,
    run_record,
    trend_rows,
)
from repro.obs.analytics.htmlreport import (
    bar_chart,
    html_table,
    line_chart,
    render_report,
    suite_overview_rows,
)

__all__ = [
    "RUNS_FILENAME",
    "RUNS_SCHEMA",
    "aggregate_digest",
    "append_run",
    "bar_chart",
    "detect_trends",
    "environment_provenance",
    "html_table",
    "line_chart",
    "load_runs",
    "localize_digest_change",
    "render_report",
    "rss_series",
    "run_record",
    "suite_overview_rows",
    "trend_rows",
]
