"""Experiment orchestration: declarative scenario suites, runner, artifacts, gate.

The subsystem the ``repro suite`` CLI and the conformance tests are built on:

* :mod:`repro.experiments.spec` — :class:`ScenarioSpec` and deterministic
  per-trial seed derivation;
* :mod:`repro.experiments.registry` — graph families, solvers, and the named
  suites (``smoke``, ``conformance``, ``scale``, ``robustness``,
  ``massive``);
* :mod:`repro.experiments.runner` — serial / process-parallel trial execution
  with results independent of worker count;
* :mod:`repro.experiments.artifacts` — JSONL trial store plus the
  byte-deterministic ``BENCH_suite.json`` aggregate snapshot;
* :mod:`repro.experiments.compare` — the regression gate diffing a fresh run
  against the committed baseline.
"""

from repro.experiments.artifacts import (
    SUITE_FILENAME,
    TIMING_FILENAME,
    TRIALS_FILENAME,
    aggregate_suite,
    canonical_dumps,
    load_suite_summary,
    load_suite_timing,
    merge_timing,
    timing_summary,
    write_suite_artifacts,
    write_trial_rows,
)
from repro.experiments.compare import (
    Finding,
    compare_rss,
    compare_summaries,
    compare_timing,
    gate_passes,
)
from repro.experiments.registry import (
    FAMILY_PARAM_KEYS,
    GRAPH_FAMILIES,
    SOLVER_PARAM_KEYS,
    SOLVERS,
    check_spec_params,
    get_suite,
    suite_names,
    validate_spec,
)
from repro.experiments.runner import (
    ScenarioResult,
    SuiteResult,
    profile_filename,
    run_scenarios,
    run_suite,
    run_trial,
)
from repro.experiments.spec import ScenarioSpec, derive_seed, trial_seeds

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "SuiteResult",
    "FAMILY_PARAM_KEYS",
    "Finding",
    "GRAPH_FAMILIES",
    "SOLVER_PARAM_KEYS",
    "SOLVERS",
    "SUITE_FILENAME",
    "TIMING_FILENAME",
    "TRIALS_FILENAME",
    "aggregate_suite",
    "canonical_dumps",
    "check_spec_params",
    "compare_rss",
    "compare_summaries",
    "compare_timing",
    "derive_seed",
    "gate_passes",
    "get_suite",
    "load_suite_summary",
    "load_suite_timing",
    "merge_timing",
    "profile_filename",
    "run_scenarios",
    "run_suite",
    "run_trial",
    "suite_names",
    "timing_summary",
    "trial_seeds",
    "validate_spec",
    "write_suite_artifacts",
    "write_trial_rows",
]
