"""Trace-side analytics: the resource series of a round trace.

These helpers read the *trace* (the ``TRACE_*.jsonl`` event stream written
by :class:`~repro.obs.tracer.RoundTracer`), never the live network — they
are pure post-hoc reductions, so the observation-only contract holds by
construction.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple


def rss_series(
    events: Sequence[Mapping[str, object]],
) -> List[Tuple[float, float]]:
    """The trace's resource-sample curve as ``(wall_s, rss_mb)`` points."""
    series: List[Tuple[float, float]] = []
    for event in events:
        if event.get("type") == "sample" and "rss_mb" in event:
            series.append((
                float(event.get("wall_s", 0.0)), float(event["rss_mb"]),
            ))
    return series
