"""repro.obs.analytics — performance intelligence over traces & aggregates.

Pure post-hoc reductions of the artifacts PR 6 introduced (``TRACE_*.jsonl``
event streams, ``BENCH_*.json`` aggregates): comm-volume summaries and
resource series, reference-curve fitting with the comm regression gate, the
append-only run-history registry, and the static HTML report renderer.
Nothing here touches a live run — the observation-only contract extends to
analytics by construction (see DESIGN.md, "Analytics invariants").
"""

from repro.obs.analytics.comm import rss_series
from repro.obs.analytics.curves import (
    COMM_FILENAME,
    COMM_SCHEMA,
    REFERENCE_CURVES,
    SUPER_LOGARITHMIC,
    CurveFit,
    best_fit,
    build_comm_baseline,
    compare_comm,
    fit_curve,
    load_comm_baseline,
)
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
    "COMM_FILENAME",
    "COMM_SCHEMA",
    "REFERENCE_CURVES",
    "RUNS_FILENAME",
    "RUNS_SCHEMA",
    "SUPER_LOGARITHMIC",
    "CurveFit",
    "aggregate_digest",
    "append_run",
    "bar_chart",
    "best_fit",
    "build_comm_baseline",
    "compare_comm",
    "detect_trends",
    "environment_provenance",
    "fit_curve",
    "html_table",
    "line_chart",
    "load_comm_baseline",
    "load_runs",
    "localize_digest_change",
    "render_report",
    "rss_series",
    "run_record",
    "suite_overview_rows",
    "trend_rows",
]
