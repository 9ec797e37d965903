"""Run-history registry: an append-only ``RUNS.jsonl`` of suite runs.

Every ``repro suite run`` appends one record — when the run's aggregate
snapshot was produced, its sha256 digest, validity counts, wall-clock/RSS,
and environment provenance (python/numpy/platform/cpus plus the perf knobs
the aggregate deliberately omits).  The registry is what turns isolated
bench runs into a tracked trajectory: ``repro report trend`` folds the
records into cross-run findings — digest drift is informational (the
aggregate is byte-deterministic, so a changed digest means the *code*
changed what it measures), correctness drops fail, and wall/RSS growth
warns, mirroring the severity conventions of ``suite compare``.

The records never feed back into any run — appending and reading the
registry is observation-only by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.experiments.compare import Finding

#: Conventional filename of the registry inside a suite output directory.
RUNS_FILENAME = "RUNS.jsonl"

#: Record schema identifier (bump when the record shape changes).
RUNS_SCHEMA = "repro-runs/1"


def aggregate_digest(summary: Mapping[str, object]) -> str:
    """sha256 of the aggregate's canonical serialization.

    Uses the same byte-stable encoding the committed ``BENCH_suite.json``
    is written with, so the digest of a run equals the digest of its
    artifact file.
    """
    from repro.experiments.artifacts import canonical_dumps

    return hashlib.sha256(canonical_dumps(summary).encode()).hexdigest()


def environment_provenance() -> Dict[str, object]:
    """The machine/toolchain facts a regression hunt needs to rule out."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_record(
    summary: Mapping[str, object],
    timing: Optional[Mapping[str, object]] = None,
    timestamp: Optional[float] = None,
    knobs: Optional[Mapping[str, object]] = None,
    digest_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Build one registry record from a run's aggregate (+ optional timing).

    ``knobs`` carries the perf-only execution parameters (backend,
    workers, ledger) that the deterministic aggregate deliberately omits —
    here they are exactly the provenance a trend reader wants.
    ``digest_dir`` records where the run wrote its ``DIGEST_*.jsonl``
    streams so ``repro report trend`` can align them when a later run's
    aggregate digest changes.
    """
    scenarios: Mapping[str, Mapping] = summary.get("scenarios", {})
    record: Dict[str, object] = {
        "schema": RUNS_SCHEMA,
        "ts": round(float(timestamp), 3) if timestamp is not None else None,
        "suite": summary.get("suite"),
        "digest": aggregate_digest(summary),
        "scenarios": sorted(scenarios),
        "trials": sum(int(e.get("trials", 0)) for e in scenarios.values()),
        "valid_trials": sum(
            int(e.get("valid_trials", 0)) for e in scenarios.values()
        ),
        "env": environment_provenance(),
    }
    if summary.get("seed_override") is not None:
        record["seed_override"] = summary["seed_override"]
    if timing is not None:
        record["wall_s"] = round(float(timing.get("total_wall_s", 0.0)), 4)
        rss_map = timing.get("peak_rss_mb") or {}
        if rss_map:
            record["peak_rss_mb"] = max(float(v) for v in rss_map.values())
    if knobs:
        record["knobs"] = dict(knobs)
    if digest_dir is not None:
        record["digest_dir"] = str(digest_dir)
    return record


def append_run(path: Path, record: Mapping[str, object]) -> None:
    """Append one record to the registry (creating the file if needed)."""
    line = json.dumps(dict(record), sort_keys=True, default=str)
    with open(Path(path), "a") as handle:
        handle.write(line + "\n")


def load_runs(path: Path, suite: Optional[str] = None) -> List[Dict[str, object]]:
    """Read the registry; with ``suite`` given, that suite's records only.

    Unparseable lines are skipped (an interrupted append must not brick the
    whole registry), as are records of other schemas.
    """
    runs: List[Dict[str, object]] = []
    registry = Path(path)
    if not registry.exists():
        return runs
    for line in registry.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict) or record.get("schema") != RUNS_SCHEMA:
            continue
        if suite is not None and record.get("suite") != suite:
            continue
        runs.append(record)
    return runs


#: Most per-scenario digest-drift localizations emitted per run pair before
#: the aligner stops (the first few name the drift; the rest are noise).
LOCALIZE_LIMIT = 3


def localize_digest_change(
    suite: str,
    prev: Mapping[str, object],
    cur: Mapping[str, object],
    limit: int = LOCALIZE_LIMIT,
) -> List[Finding]:
    """Align two runs' stored ``DIGEST_*.jsonl`` streams, per scenario.

    Upgrades the bare "aggregate digest changed" trend finding into
    per-scenario (round, phase) localizations via the forensics
    aligner.  Every obstacle — no recorded ``digest_dir``, both runs
    overwriting the same directory, a stream file missing or unreadable —
    degrades to an ``info`` finding rather than an error: trend reporting
    must never crash on an incomplete registry.
    """
    findings: List[Finding] = []
    dir_a = prev.get("digest_dir")
    dir_b = cur.get("digest_dir")
    if not dir_a or not dir_b:
        findings.append(Finding(
            "info", suite, "digest",
            "no stored digest streams to align (run with --digest DIR to "
            "record them; then a digest change localizes itself)",
        ))
        return findings
    if str(dir_a) == str(dir_b):
        findings.append(Finding(
            "info", suite, "digest",
            f"both runs wrote digest streams to {dir_a} — the earlier run's "
            "streams were overwritten, so there is nothing to align; use "
            "distinct --digest directories per run",
        ))
        return findings
    from repro.obs.artifacts import digest_filename, load_events
    from repro.obs.forensics import first_divergence, render_divergence

    emitted = 0
    scenarios = sorted(set(prev.get("scenarios") or [])
                       & set(cur.get("scenarios") or []))
    for scenario in scenarios:
        path_a = Path(dir_a) / digest_filename(scenario)
        path_b = Path(dir_b) / digest_filename(scenario)
        missing = [str(p) for p in (path_a, path_b) if not p.exists()]
        if missing:
            findings.append(Finding(
                "info", suite, "digest",
                f"{scenario}: digest stream missing "
                f"({', '.join(missing)}); cannot align",
            ))
            continue
        try:
            div = first_divergence(load_events(path_a),
                                   load_events(path_b))
        except (OSError, ValueError) as exc:
            findings.append(Finding(
                "info", suite, "digest",
                f"{scenario}: unreadable digest stream ({exc})",
            ))
            continue
        if div is None:
            continue
        summary_line = render_divergence(div).splitlines()[0]
        findings.append(Finding(
            "info", suite, "digest",
            f"{summary_line} — bisect with "
            f"`repro diff {path_a} {path_b} --bisect`",
        ))
        emitted += 1
        if emitted >= limit:
            remaining = len(scenarios) - scenarios.index(scenario) - 1
            if remaining > 0:
                findings.append(Finding(
                    "info", suite, "digest",
                    f"{remaining} more scenario(s) not aligned "
                    f"(localization limit {limit})",
                ))
            break
    return findings


def detect_trends(
    runs: List[Dict[str, object]],
    wall_budget: float = 0.25,
    rss_budget: float = 0.25,
) -> List[Finding]:
    """Cross-run findings over a registry, grouped per suite.

    Each suite's records are compared consecutive-pairwise in file
    (append) order:

    * ``valid_trials`` dropping between runs of the same digest → ``fail``
      (same workload, fewer valid colorings — a real correctness drift);
    * aggregate digest change → ``info``, upgraded with per-scenario
      localizations when both runs stored ``DIGEST_*.jsonl`` streams
      (:func:`localize_digest_change`);
    * wall-clock / peak-RSS growth beyond the budgets → ``warn`` (machine
      state, same soft severity as the ``suite compare`` budgets).
    """
    findings: List[Finding] = []
    by_suite: Dict[str, List[Dict[str, object]]] = {}
    for record in runs:
        by_suite.setdefault(str(record.get("suite")), []).append(record)
    for suite, records in sorted(by_suite.items()):
        for prev, cur in zip(records, records[1:]):
            if cur.get("digest") != prev.get("digest"):
                findings.append(Finding(
                    "info", suite, "digest",
                    f"aggregate digest changed: {str(prev.get('digest'))[:12]} "
                    f"-> {str(cur.get('digest'))[:12]} (the measured workload "
                    "or its metrics changed)",
                ))
                findings.extend(localize_digest_change(suite, prev, cur))
            elif int(cur.get("valid_trials", 0)) < int(prev.get("valid_trials", 0)):
                findings.append(Finding(
                    "fail", suite, "valid_trials",
                    f"correctness drift across runs: "
                    f"{prev.get('valid_trials')} -> {cur.get('valid_trials')} "
                    "valid trials on an identical aggregate digest",
                ))
            old_wall = float(prev.get("wall_s") or 0.0)
            new_wall = float(cur.get("wall_s") or 0.0)
            if old_wall > 0 and new_wall > old_wall * (1.0 + wall_budget):
                findings.append(Finding(
                    "warn", suite, "wall_s",
                    f"run slowed: {old_wall:g}s -> {new_wall:g}s "
                    f"({(new_wall - old_wall) / old_wall:+.0%}, "
                    f"budget +{wall_budget:.0%})",
                ))
            old_rss = float(prev.get("peak_rss_mb") or 0.0)
            new_rss = float(cur.get("peak_rss_mb") or 0.0)
            if old_rss > 0 and new_rss > old_rss * (1.0 + rss_budget):
                findings.append(Finding(
                    "warn", suite, "peak_rss_mb",
                    f"run peaked higher: {old_rss:g}MiB -> {new_rss:g}MiB "
                    f"({(new_rss - old_rss) / old_rss:+.0%}, "
                    f"budget +{rss_budget:.0%})",
                ))
    return findings


def trend_rows(runs: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Printable per-run rows of a registry (append order preserved)."""
    rows: List[Dict[str, object]] = []
    for record in runs:
        env = record.get("env") or {}
        rows.append({
            "suite": record.get("suite"),
            "digest": str(record.get("digest", ""))[:12],
            "trials": record.get("trials"),
            "valid": record.get("valid_trials"),
            "wall s": record.get("wall_s", "-"),
            "rss MiB": record.get("peak_rss_mb", "-"),
            "python": env.get("python", "-"),
            "cpus": env.get("cpus", "-"),
        })
    return rows
