"""Plain-text tables and the summary statistics of suite aggregates.

:func:`format_table` renders the CLI's and the examples' tables;
:func:`aggregate_rows` and :func:`summary_stats` reduce a scenario's trial
rows to the mean/median/p95/min/max columns of ``BENCH_*.json``.
"""

from __future__ import annotations

import math

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Format a list of dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Aggregation helpers (used by the experiment suite's artifact store)
# --------------------------------------------------------------------------- #

def _stable(value: float) -> float:
    """Round to a fixed precision so aggregates serialize byte-identically."""
    rounded = round(float(value), 6)
    return rounded + 0.0  # normalize -0.0


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return _stable(sum(values) / len(values))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return _stable(ordered[mid])
    return _stable((ordered[mid - 1] + ordered[mid]) / 2)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    if q == 0:
        return _stable(ordered[0])
    rank = math.ceil(q / 100 * len(ordered))
    return _stable(ordered[rank - 1])


def summary_stats(values: Sequence[float]) -> Dict[str, float]:
    """The headline statistics the suite aggregates per scenario metric."""
    return {
        "mean": mean(values),
        "median": median(values),
        "p95": percentile(values, 95),
        "min": _stable(min(values)),
        "max": _stable(max(values)),
    }


def aggregate_rows(
    rows: Sequence[Mapping[str, object]],
    exclude: Optional[Iterable[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Aggregate every numeric column shared by all ``rows`` into summary stats.

    Boolean and non-numeric columns are skipped; so are columns named in
    ``exclude`` and columns missing from any row (aggregates must be a
    deterministic function of the full trial set).
    """
    if not rows:
        return {}
    excluded = set(exclude or ())
    stats: Dict[str, Dict[str, float]] = {}
    for key in rows[0]:
        if key in excluded:
            continue
        values = [row.get(key) for row in rows]
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
            continue
        stats[key] = summary_stats(values)  # type: ignore[arg-type]
    return stats
