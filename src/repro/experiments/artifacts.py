"""Artifact store for suite runs: trial JSONL, aggregate snapshot, timing.

A suite run produces three files in the output directory:

* ``BENCH_suite_trials.jsonl`` — one JSON row per trial, in (scenario, trial)
  order, including seeds and per-trial wall-clock.  The full-resolution
  record.
* ``BENCH_suite.json`` — the aggregate snapshot: per-scenario summary stats
  (mean/median/p95/min/max) of every numeric metric, plus validity counts.
  **Fully deterministic**: it contains no timing and no backend/ledger knobs,
  so serial and parallel runs — and runs on different transport backends —
  produce byte-identical files.  This is the file that gets committed as the
  regression baseline and diffed by ``repro suite compare``.
* ``BENCH_suite_timing.json`` — wall-clock per scenario and total.  Kept
  separate precisely so the aggregate stays byte-stable.  The timing file is
  **multi-suite**: each run merges its own suite's entry into whatever the
  file already holds (``{"schema": ..., "suites": {name: {total_wall_s,
  scenarios}}}``), so one committed artifact can carry the wall-clock
  baselines of ``smoke`` and ``scale`` at once — that is the
  file the opt-in ``--timing-budget`` soft gate diffs against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.experiments.runner import NON_METRIC_KEYS, SuiteResult
from repro.metrics.report import aggregate_rows

SCHEMA = "repro-suite/1"
TIMING_SCHEMA = "repro-suite-timing/1"
TRIALS_FILENAME = "BENCH_suite_trials.jsonl"
SUITE_FILENAME = "BENCH_suite.json"
TIMING_FILENAME = "BENCH_suite_timing.json"


def canonical_dumps(payload: object) -> str:
    """Key-sorted, newline-terminated JSON — the byte-stable serialization."""
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def aggregate_suite(result: SuiteResult) -> Dict[str, object]:
    """Reduce a suite run to its deterministic aggregate snapshot.

    Faulted scenarios additionally record their canonical fault plan (the
    same encoding that feeds the fault RNG), and a run launched with a
    ``--seed`` override records it at the top level — both so ``suite
    compare`` can refuse to diff runs of genuinely different workloads.
    Fault-free, non-overridden runs keep the historical schema byte for
    byte.

    A digest-enabled run (``--digest``) additionally records each scenario's
    per-trial chained ``state_digest`` list and a top-level ``"digests"``
    marker — both fully deterministic, but *present only on digested runs*,
    so ``suite compare`` refuses to gate a digested aggregate against an
    undigested baseline (and vice versa) rather than silently ignoring the
    strongest determinism signal available.
    """
    scenarios: Dict[str, object] = {}
    digested = all(
        all("state_digest" in row for row in scenario.rows)
        for scenario in result.scenarios
    ) and bool(result.scenarios)
    for scenario in result.scenarios:
        spec = scenario.spec
        entry: Dict[str, object] = {
            "family": spec.family,
            "solver": spec.solver,
            "mode": spec.mode,
            "trials": len(scenario.rows),
            "valid_trials": scenario.valid_trials,
            "metrics": aggregate_rows(scenario.rows, exclude=NON_METRIC_KEYS),
        }
        if digested:
            entry["state_digest"] = [row["state_digest"]
                                     for row in scenario.rows]
        if spec.tags:
            entry["tags"] = sorted(spec.tags)
        if spec.faults:
            from repro.faults import FaultPlan

            # Coerce, don't just encode: an all-default mapping (e.g. the
            # drop=0.0 endpoint of a sweep) runs unwrapped and must produce
            # an aggregate byte-identical to its clean twin's.
            plan = FaultPlan.coerce(spec.faults)
            if plan is not None:
                entry["faults"] = plan.canonical()
        scenarios[spec.name] = entry
    summary: Dict[str, object] = {
        "schema": SCHEMA, "suite": result.suite, "scenarios": scenarios,
    }
    if digested:
        summary["digests"] = True
    seed_override = getattr(result, "seed_override", None)
    if seed_override is not None:
        summary["seed_override"] = seed_override
    return summary


def timing_summary(result: SuiteResult) -> Dict[str, object]:
    """One run's wall-clock + peak-memory entry (merged into the timing file).

    ``peak_rss_mb`` is the per-scenario maximum of the trial rows' process
    high-water marks (see :func:`~repro.obs.sampler.peak_rss_mb`), so
    memory regressions at large n are visible next to the wall-clock they
    usually cause.  Machine state, like timing — hence this artifact, never
    the aggregate.
    """
    return {
        "suite": result.suite,
        "total_wall_s": result.wall_s,
        "scenarios": {
            scenario.spec.name: scenario.wall_s for scenario in result.scenarios
        },
        "peak_rss_mb": {
            scenario.spec.name: scenario.peak_rss_mb
            for scenario in result.scenarios
        },
    }


def merge_timing(path: Path, summary: Mapping[str, object]) -> Dict[str, object]:
    """Merge one run's :func:`timing_summary` into the timing artifact.

    Entries of *other* suites already in the file are preserved; the entry of
    the run's own suite is replaced wholesale.  A missing, malformed, or
    legacy-schema file is simply overwritten — timing is a soft,
    machine-dependent artifact, never a correctness record.
    """
    path = Path(path)
    data: Dict[str, object] = {"schema": TIMING_SCHEMA, "suites": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = None
        if (
            isinstance(existing, dict)
            and existing.get("schema") == TIMING_SCHEMA
            and isinstance(existing.get("suites"), dict)
        ):
            data["suites"].update(existing["suites"])
    entry = {
        "total_wall_s": summary["total_wall_s"],
        "scenarios": dict(summary["scenarios"]),
    }
    if "peak_rss_mb" in summary:
        entry["peak_rss_mb"] = dict(summary["peak_rss_mb"])
    data["suites"][str(summary["suite"])] = entry
    path.write_text(canonical_dumps(data))
    return data


def _load_object(path: Path, kind: str) -> Dict[str, object]:
    """Parse ``path`` as JSON, raising ``ValueError`` unless it is an object."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"{path}: the {kind} is not a JSON object (got {type(data).__name__})"
        )
    return data


def load_suite_timing(path: Path, suite: Optional[str] = None) -> Dict[str, object]:
    """Load the timing artifact; with ``suite`` given, return that entry only."""
    data = _load_object(path, "timing snapshot")
    if data.get("schema") != TIMING_SCHEMA:
        raise ValueError(
            f"{path}: unsupported timing snapshot schema {data.get('schema')!r} "
            f"(expected {TIMING_SCHEMA!r})"
        )
    if not isinstance(data.get("suites"), dict):
        raise ValueError(f"{path}: the timing snapshot's 'suites' is not a JSON object")
    if suite is None:
        return data
    try:
        return data["suites"][suite]
    except KeyError:
        raise ValueError(f"{path}: no timing entry for suite {suite!r}") from None


def write_suite_artifacts(
    result: SuiteResult,
    out_dir: Path,
    summary: Optional[Mapping[str, object]] = None,
    timing: bool = True,
) -> Dict[str, Path]:
    """Write the suite artifacts; returns the paths keyed by artifact kind.

    ``summary`` accepts an already-built :func:`aggregate_suite` snapshot so
    callers that also display it don't aggregate twice.  ``timing=False``
    skips the timing merge entirely (and omits the ``"timing"`` path) — a
    profiled run's wall-clock includes cProfile overhead and must never
    refresh a timing baseline.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "trials": out_dir / TRIALS_FILENAME,
        "suite": out_dir / SUITE_FILENAME,
    }
    write_trial_rows(paths["trials"], result.rows())
    paths["suite"].write_text(canonical_dumps(summary if summary is not None
                                              else aggregate_suite(result)))
    if timing:
        paths["timing"] = out_dir / TIMING_FILENAME
        merge_timing(paths["timing"], timing_summary(result))
    return paths


def write_trial_rows(path: Path, rows: Sequence[Mapping[str, object]]) -> None:
    lines = [json.dumps(dict(row), sort_keys=True, default=str) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_suite_summary(path: Path) -> Dict[str, object]:
    summary = _load_object(path, "suite snapshot")
    schema = summary.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported suite snapshot schema {schema!r} (expected {SCHEMA!r})"
        )
    return summary
