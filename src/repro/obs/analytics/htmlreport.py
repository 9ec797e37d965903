"""Self-contained static HTML reports from trace + aggregate artifacts.

``repro report`` renders one HTML file with zero external dependencies —
inline CSS, inline SVG, no scripts to fetch — so the artifact can be
attached to CI runs and opened anywhere.  Charts follow one discipline:

* every chart is single-series (magnitude per phase / time), drawn
  in one categorical hue with light/dark values swapped via CSS custom
  properties and ``prefers-color-scheme``;
* values, labels and legends wear text ink, never the series color; each
  mark carries a native ``<title>`` tooltip;
* every chart sits next to the table of the same numbers, so the data is
  readable without color vision, in print, and by grep.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.analytics.comm import rss_series
from repro.obs.summary import TraceSummary, summarize_trace, timeline_rows

#: Chart geometry: fixed-width SVGs that scale down via max-width CSS.
_CHART_W = 640
_BAR_H = 22
_BAR_GAP = 6
_LABEL_W = 150
_VALUE_W = 110

_STYLE = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #dddcd7;
  --series-1: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #44443f;
    --series-1: #3987e5;
  }
}
body {
  margin: 2rem auto; max-width: 60rem; padding: 0 1rem;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif;
}
h1 { font-size: 1.4rem; }
h2 { font-size: 1.1rem; margin-top: 2.2rem; }
h3 { font-size: 0.95rem; color: var(--text-secondary); }
.meta { color: var(--text-secondary); }
table { border-collapse: collapse; margin: 0.8rem 0; }
th, td {
  padding: 0.25rem 0.7rem; text-align: right;
  border-bottom: 1px solid var(--grid);
}
th:first-child, td:first-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 600; }
svg { max-width: 100%; height: auto; display: block; margin: 0.6rem 0; }
svg .bar { fill: var(--series-1); }
svg .bar:hover { opacity: 0.8; }
svg .line { stroke: var(--series-1); stroke-width: 2; fill: none; }
svg .dot { fill: var(--series-1); }
svg .label { fill: var(--text-secondary); font: 12px system-ui, sans-serif; }
svg .value { fill: var(--text-primary); font: 12px system-ui, sans-serif; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
"""


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.4g}"
    return str(value)


def html_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render dict rows (shared keys, insertion order) as an HTML table."""
    if not rows:
        return "<p class='meta'>no rows</p>"
    columns = list(rows[0])
    head = "".join(f"<th>{escape(str(c))}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(
            f"<td>{escape(_fmt(row.get(c, '')))}</td>" for c in columns
        ) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def bar_chart(items: Sequence[Tuple[str, float]], title: str,
              unit: str = "") -> str:
    """Horizontal single-hue bar chart with direct value labels."""
    if not items:
        return ""
    peak = max(value for _, value in items) or 1.0
    plot_w = _CHART_W - _LABEL_W - _VALUE_W
    height = len(items) * (_BAR_H + _BAR_GAP) + _BAR_GAP
    parts = [
        f"<svg role='img' aria-label='{escape(title)}' "
        f"viewBox='0 0 {_CHART_W} {height}' width='{_CHART_W}'>"
    ]
    for i, (label, value) in enumerate(items):
        y = _BAR_GAP + i * (_BAR_H + _BAR_GAP)
        w = max(1.0, plot_w * float(value) / peak)
        text = f"{_fmt(value)}{(' ' + unit) if unit else ''}"
        parts.append(
            f"<text class='label' x='{_LABEL_W - 8}' y='{y + _BAR_H - 6}' "
            f"text-anchor='end'>{escape(label)}</text>"
            f"<rect class='bar' x='{_LABEL_W}' y='{y}' width='{w:.1f}' "
            f"height='{_BAR_H}' rx='4'>"
            f"<title>{escape(label)}: {escape(text)}</title></rect>"
            f"<text class='value' x='{_LABEL_W + w + 8:.1f}' "
            f"y='{y + _BAR_H - 6}'>{escape(text)}</text>"
        )
    parts.append(
        f"<line class='axis' x1='{_LABEL_W}' y1='0' x2='{_LABEL_W}' "
        f"y2='{height}'/>"
    )
    parts.append("</svg>")
    return "".join(parts)


def line_chart(points: Sequence[Tuple[float, float]], title: str,
               x_label: str, y_label: str) -> str:
    """Single-series line chart (2px stroke, >=8px hoverable markers)."""
    if len(points) < 2:
        return ""
    height = 220
    pad_l, pad_r, pad_t, pad_b = 60, 16, 12, 32
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = _CHART_W - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + plot_w * (x - x_lo) / x_span

    def sy(y: float) -> float:
        return pad_t + plot_h * (1.0 - (y - y_lo) / y_span)

    coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    parts = [
        f"<svg role='img' aria-label='{escape(title)}' "
        f"viewBox='0 0 {_CHART_W} {height}' width='{_CHART_W}'>",
        f"<line class='axis' x1='{pad_l}' y1='{pad_t}' x2='{pad_l}' "
        f"y2='{height - pad_b}'/>",
        f"<line class='axis' x1='{pad_l}' y1='{height - pad_b}' "
        f"x2='{_CHART_W - pad_r}' y2='{height - pad_b}'/>",
        f"<text class='value' x='{pad_l - 8}' y='{pad_t + 10}' "
        f"text-anchor='end'>{escape(_fmt(y_hi))}</text>",
        f"<text class='value' x='{pad_l - 8}' y='{height - pad_b}' "
        f"text-anchor='end'>{escape(_fmt(y_lo))}</text>",
        f"<text class='label' x='{pad_l - 8}' y='{pad_t + plot_h / 2:.0f}' "
        f"text-anchor='end'>{escape(y_label)}</text>",
        f"<text class='label' x='{_CHART_W - pad_r}' y='{height - 8}' "
        f"text-anchor='end'>{escape(x_label)}</text>",
        f"<polyline class='line' points='{coords}'/>",
    ]
    for x, y in points:
        parts.append(
            f"<circle class='dot' cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='4'>"
            f"<title>{escape(x_label)} {escape(_fmt(x))}: "
            f"{escape(_fmt(y))} {escape(y_label)}</title></circle>"
        )
    parts.append("</svg>")
    return "".join(parts)


# -------------------------------------------------------------- page builders

def suite_overview_rows(summary: Mapping[str, object]) -> List[Dict[str, object]]:
    """Per-scenario headline means of a suite aggregate, for the overview."""
    rows: List[Dict[str, object]] = []
    for name, entry in sorted(summary.get("scenarios", {}).items()):
        metrics: Mapping[str, Mapping] = entry.get("metrics", {})

        def mean(metric: str) -> object:
            stats = metrics.get(metric)
            return stats.get("mean", "-") if isinstance(stats, Mapping) else "-"

        rows.append({
            "scenario": name,
            "trials": entry.get("trials"),
            "valid": entry.get("valid_trials"),
            "rounds": mean("rounds"),
            "total bits": mean("total_bits"),
            "bits/node": mean("bits_per_node"),
            "messages": mean("total_messages"),
            "max edge bits": mean("max_edge_bits"),
        })
    return rows


def _trace_section(name: str, events: Sequence[Mapping[str, object]]) -> str:
    summary: TraceSummary = summarize_trace(events)
    parts = [f"<h2>trace: {escape(name)}</h2>"]
    if summary.headers:
        head = summary.headers[0]
        meta = "  ".join(
            f"{key}={head[key]}" for key in
            ("scenario", "solver", "n", "m", "mode", "backend", "faults")
            if key in head
        )
        parts.append(f"<p class='meta'>{escape(meta)} "
                     f"trials={summary.trials}</p>")
    parts.append("<h3>phase timeline</h3>")
    parts.append(html_table(timeline_rows(summary)))
    bits = [(t.phase or "unlabeled", float(t.bits)) for t in summary.phases]
    parts.append("<h3>bits by phase</h3>")
    parts.append(bar_chart(bits, f"{name}: bits by phase", unit="bits"))
    wall = [(t.phase or "unlabeled", round(t.wall_s, 4))
            for t in summary.phases]
    parts.append("<h3>wall-clock by phase</h3>")
    parts.append(bar_chart(wall, f"{name}: wall-clock by phase", unit="s"))
    rss = rss_series(events)
    if len(rss) >= 2:
        parts.append("<h3>resident set over the run</h3>")
        parts.append(line_chart(rss, f"{name}: RSS", "wall s", "MiB"))
    return "".join(parts)


def render_report(
    title: str,
    summary: Optional[Mapping[str, object]] = None,
    traces: Optional[Sequence[Tuple[str, Sequence[Mapping[str, object]]]]] = None,
) -> str:
    """Build the full self-contained HTML report document.

    ``summary`` is an optional suite aggregate (rendered as the overview
    table); ``traces`` is ``(name, events)`` pairs, one section each.
    """
    body: List[str] = [f"<h1>{escape(title)}</h1>"]
    if summary is not None:
        body.append(
            f"<p class='meta'>suite {escape(str(summary.get('suite')))}</p>"
        )
        body.append("<h2>scenario overview</h2>")
        body.append(html_table(suite_overview_rows(summary)))
    for name, events in traces or ():
        body.append(_trace_section(name, events))
    return (
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{escape(title)}</title>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        f"<style>{_STYLE}</style></head><body>"
        + "".join(body)
        + "</body></html>\n"
    )
