"""Trace summaries: phase timelines and per-phase drift between two runs.

A *phase timeline* folds a trace's round events by phase (the label prefix
before ``":"`` — the same convention as
:func:`repro.metrics.ledger.rounds_by_phase`), in first-appearance order:
per phase, how many rounds ran, how many messages and bits they moved, and
how much wall-clock they took.  This is the per-phase comparison surface
competing solvers will share.

``compare_traces`` diffs the *deterministic* columns (rounds, messages,
bits) of two timelines — the drift table ``repro diff`` prints; wall-clock
never enters it, so two byte-identical runs on different machines compare
clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.metrics.report import format_table


@dataclass
class PhaseTotals:
    """Accumulated cost of one phase across a trace's round events."""

    phase: str
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    max_edge_bits: int = 0
    wall_s: float = 0.0

    def add_round(self, event: Mapping[str, object]) -> None:
        self.rounds += 1
        self.messages += int(event.get("messages", 0))
        self.bits += int(event.get("bits", 0))
        self.max_edge_bits = max(self.max_edge_bits,
                                 int(event.get("max_edge_bits", 0)))
        self.wall_s += float(event.get("wall_s", 0.0))


@dataclass
class TraceSummary:
    """One trace file reduced to totals plus its per-phase timeline."""

    trials: int = 0
    rounds: int = 0
    messages: int = 0
    bits: int = 0
    max_edge_bits: int = 0
    wall_s: float = 0.0
    samples: int = 0
    peak_rss_mb: float = 0.0
    phases: List[PhaseTotals] = field(default_factory=list)
    headers: List[Dict[str, object]] = field(default_factory=list)

    def phase(self, name: str) -> Optional[PhaseTotals]:
        for totals in self.phases:
            if totals.phase == name:
                return totals
        return None


def summarize_trace(events: Sequence[Mapping[str, object]]) -> TraceSummary:
    """Fold a trace's events into totals and a first-appearance phase timeline.

    Totals are computed from the ``round`` events themselves (not trusted
    from the ``end`` events), so a summary of a truncated trace is honest
    about exactly what it saw.
    """
    summary = TraceSummary()
    by_phase: Dict[str, PhaseTotals] = {}
    for event in events:
        kind = event.get("type")
        if kind == "round":
            label = str(event.get("label", ""))
            phase = str(event.get("phase", label.split(":", 1)[0]))
            totals = by_phase.get(phase)
            if totals is None:
                totals = by_phase[phase] = PhaseTotals(phase=phase)
                summary.phases.append(totals)
            totals.add_round(event)
            summary.rounds += 1
            summary.messages += int(event.get("messages", 0))
            summary.bits += int(event.get("bits", 0))
            summary.max_edge_bits = max(summary.max_edge_bits,
                                        int(event.get("max_edge_bits", 0)))
            summary.wall_s += float(event.get("wall_s", 0.0))
        elif kind == "header":
            summary.trials += 1
            summary.headers.append(dict(event))
        elif kind == "sample":
            summary.samples += 1
            summary.peak_rss_mb = max(summary.peak_rss_mb,
                                      float(event.get("rss_mb", 0.0)))
        elif kind == "end":
            summary.peak_rss_mb = max(summary.peak_rss_mb,
                                      float(event.get("rss_mb", 0.0)))
    return summary


def summary_as_dict(summary: TraceSummary) -> Dict[str, object]:
    """Machine-readable form of a summary (the ``--json`` output shape).

    Plain JSON-serializable values only; phase order is preserved (first
    appearance), everything else is stable across machines — wall-clock
    fields are included but rounded, and no environment state leaks in.
    """
    return {
        "trials": summary.trials,
        "rounds": summary.rounds,
        "messages": summary.messages,
        "bits": summary.bits,
        "max_edge_bits": summary.max_edge_bits,
        "wall_s": round(summary.wall_s, 6),
        "samples": summary.samples,
        "peak_rss_mb": summary.peak_rss_mb,
        "phases": [
            {
                "phase": totals.phase,
                "rounds": totals.rounds,
                "messages": totals.messages,
                "bits": totals.bits,
                "max_edge_bits": totals.max_edge_bits,
                "wall_s": round(totals.wall_s, 6),
            }
            for totals in summary.phases
        ],
    }


def timeline_rows(summary: TraceSummary) -> List[Dict[str, object]]:
    """Printable per-phase rows of one summary (plus a totals row)."""
    rows: List[Dict[str, object]] = []
    for totals in summary.phases:
        rows.append({
            "phase": totals.phase or "-",
            "rounds": totals.rounds,
            "messages": totals.messages,
            "bits": totals.bits,
            "max edge bits": totals.max_edge_bits,
            "wall s": round(totals.wall_s, 4),
        })
    rows.append({
        "phase": "TOTAL",
        "rounds": summary.rounds,
        "messages": summary.messages,
        "bits": summary.bits,
        "max edge bits": summary.max_edge_bits,
        "wall s": round(summary.wall_s, 4),
    })
    return rows


def render_timeline(summary: TraceSummary, title: str = "phase timeline") -> str:
    """The ``repro trace summarize`` output: header line + per-phase table."""
    lines: List[str] = []
    if summary.headers:
        head = summary.headers[0]
        parts = [f"trials={summary.trials}"]
        for key in ("scenario", "solver", "n", "m", "mode", "backend",
                    "bandwidth_bits", "faults"):
            if key in head:
                parts.append(f"{key}={head[key]}")
        if summary.peak_rss_mb:
            parts.append(f"peak_rss={summary.peak_rss_mb}MiB")
        lines.append("  ".join(str(p) for p in parts))
    lines.append(format_table(timeline_rows(summary), title=title))
    return "\n".join(lines)


@dataclass
class PhaseDrift:
    """One phase's deterministic-column difference between two traces."""

    phase: str
    column: str
    a: int
    b: int

    def as_row(self) -> Dict[str, object]:
        delta = self.b - self.a
        pct = (100.0 * delta / self.a) if self.a else float("inf")
        return {
            "phase": self.phase or "-",
            "column": self.column,
            "a": self.a,
            "b": self.b,
            "delta": delta,
            "delta %": round(pct, 2) if self.a else "new",
        }


def compare_traces(events_a: Sequence[Mapping[str, object]],
                   events_b: Sequence[Mapping[str, object]]) -> List[PhaseDrift]:
    """Diff the deterministic per-phase columns of two traces.

    Returns one :class:`PhaseDrift` per (phase, column) that differs in
    rounds, messages, or bits — empty means the two traces describe the
    same per-phase communication, whatever their wall-clocks were.
    """
    a = summarize_trace(events_a)
    b = summarize_trace(events_b)
    drifts: List[PhaseDrift] = []
    names = [t.phase for t in a.phases]
    names.extend(t.phase for t in b.phases if t.phase not in names)
    for name in names:
        pa = a.phase(name) or PhaseTotals(phase=name)
        pb = b.phase(name) or PhaseTotals(phase=name)
        for column in ("rounds", "messages", "bits"):
            va, vb = getattr(pa, column), getattr(pb, column)
            if va != vb:
                drifts.append(PhaseDrift(phase=name, column=column, a=va, b=vb))
    return drifts

