"""repro.obs — round-level tracing, telemetry, and run-event artifacts.

Observation-only by contract: nothing in this package consumes randomness
or mutates engine state, and a traced run is byte-identical to an untraced
one (see DESIGN.md, "Observability invariants").
"""

from repro.obs.artifacts import (
    EVENTS_SUFFIX,
    TRACE_PREFIX,
    deterministic_events,
    digest_filename,
    load_events,
    trace_filename,
    write_events,
)
from repro.obs.sampler import (
    ResourceSampler,
    cpu_seconds,
    current_rss_mb,
    peak_rss_mb,
)
from repro.obs.summary import (
    PhaseDrift,
    PhaseTotals,
    TraceSummary,
    compare_traces,
    render_timeline,
    summarize_trace,
    summary_as_dict,
    timeline_rows,
)
from repro.obs.tracer import RUN_SCHEMA, RoundTracer

__all__ = [
    "EVENTS_SUFFIX",
    "RUN_SCHEMA",
    "TRACE_PREFIX",
    "PhaseDrift",
    "PhaseTotals",
    "ResourceSampler",
    "RoundTracer",
    "TraceSummary",
    "compare_traces",
    "cpu_seconds",
    "current_rss_mb",
    "deterministic_events",
    "digest_filename",
    "load_events",
    "peak_rss_mb",
    "render_timeline",
    "summarize_trace",
    "summary_as_dict",
    "timeline_rows",
    "trace_filename",
    "write_events",
]
