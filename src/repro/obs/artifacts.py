"""Run-event artifacts: ``TRACE_<scenario>.jsonl`` and ``DIGEST_<scenario>.jsonl``.

One file holds every instrumented trial of one scenario, in trial order:
each trial contributes the :class:`~repro.obs.tracer.RoundTracer` stream —
its ``header``, its ``round`` (and ``fine``/``sample``) events, and its
``end``.  Both file kinds carry the same schema and differ only in what they
keep:

* ``TRACE_`` files keep every event.  Wall-clock and resource fields make
  them machine-dependent, so they are **diagnostic** artifacts: they live
  next to the byte-deterministic ``BENCH_suite.json`` aggregates but are
  never part of the regression gate's byte comparison.  What *is* pinned
  (by ``tests/test_obs.py``) is consistency: the per-round
  ``bits``/``messages`` sum exactly to the ledger aggregates the suite
  artifacts report.
* ``DIGEST_`` files are :func:`deterministic_events` — the same stream
  without ``sample`` events and :data:`MACHINE_FIELDS`.  Re-running the
  same workload reproduces them bit for bit on any backend and trial-worker
  count, which the CI ``forensics-smoke`` job and
  ``tests/test_forensics.py`` pin.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Mapping

from repro.obs.tracer import RUN_SCHEMA

TRACE_PREFIX = "TRACE_"
DIGEST_PREFIX = "DIGEST_"
EVENTS_SUFFIX = ".jsonl"

#: Event fields that depend on the machine or on performance knobs (clock,
#: process counters, transport backend, ledger kind) rather than the run.
MACHINE_FIELDS = frozenset({"wall_s", "rss_mb", "cpu_s", "backend", "ledger"})


def _filename(prefix: str, scenario: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", scenario)
    return f"{prefix}{safe}{EVENTS_SUFFIX}"


def trace_filename(scenario: str) -> str:
    """Artifact name for one scenario's full event stream (filesystem-safe)."""
    return _filename(TRACE_PREFIX, scenario)


def digest_filename(scenario: str) -> str:
    """Artifact name for one scenario's deterministic stream (filesystem-safe)."""
    return _filename(DIGEST_PREFIX, scenario)


def deterministic_events(
    events: Iterable[Mapping[str, object]],
) -> List[Dict[str, object]]:
    """The byte-reproducible view of a stream: no samples, no machine fields."""
    return [
        {key: value for key, value in event.items()
         if key not in MACHINE_FIELDS}
        for event in events
        if event.get("type") != "sample"
    ]


def write_events(path: Path, events: Iterable[Mapping[str, object]]) -> Path:
    """Write events as JSONL (one event per line, key-sorted).

    Key-sorted serialization is load-bearing: event dicts are built in hook
    order, and sorting is what makes the byte-identity contract hold across
    code paths that populate the same fields in different orders.
    """
    path = Path(path)
    lines = [json.dumps(dict(event), sort_keys=True, default=str)
             for event in events]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def load_events(path: Path) -> List[Dict[str, object]]:
    """Load a ``TRACE_`` or ``DIGEST_`` file back into its event list.

    Raises ``ValueError`` for a line that is not JSON, a stream without a
    header, or a header of another schema.
    """
    events: List[Dict[str, object]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            event = json.loads(line)
            if not isinstance(event, dict):
                raise ValueError("a line is not a JSON object")
            events.append(event)
    headers = [e for e in events if e.get("type") == "header"]
    if events and not headers:
        raise ValueError("no header event — not a run-event stream?")
    for header in headers:
        if header.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"unsupported schema {header.get('schema')!r} "
                f"(expected {RUN_SCHEMA!r})"
            )
    return events
