"""Trial execution: serial or process-parallel, with deterministic results.

The runner turns scenario specs into trial rows.  Every trial is an
independent unit of work — build the graph from its derived graph seed, run
the solver with its derived solver seed, collect metrics — so trials can be
fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor` freely:
results depend only on the spec and the trial index, never on scheduling.
The only non-deterministic field is each row's ``wall_s`` timing, which the
artifact store keeps out of the aggregate snapshot for exactly that reason.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import io
import os
import pstats
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import repro

from repro.experiments.registry import GRAPH_FAMILIES, SOLVERS, get_suite, validate_spec
from repro.experiments.spec import ScenarioSpec, trial_seeds
from repro.obs.artifacts import (
    deterministic_events,
    digest_filename,
    trace_filename,
    write_events,
)
from repro.obs.forensics.diff import spec_payload
from repro.obs.sampler import peak_rss_mb
from repro.obs.tracer import RoundTracer

#: Row keys describing execution rather than the measured workload; they are
#: excluded from aggregation (timing/memory) or aggregated specially
#: (identity).
NON_METRIC_KEYS = (
    "scenario", "family", "solver", "trial", "graph_seed", "solver_seed", "wall_s",
    "peak_rss_mb", "state_digest",
)

#: Number of cumulative-time hotspots written per scenario profile.
PROFILE_TOP = 25


def profile_filename(scenario: str) -> str:
    """Name of the per-scenario hotspot file written next to trial artifacts."""
    return f"PROFILE_{scenario}.txt"


@dataclass
class ScenarioResult:
    """All trial rows of one scenario plus its wall-clock cost."""

    spec: ScenarioSpec
    rows: List[Dict[str, object]]
    wall_s: float

    @property
    def valid_trials(self) -> int:
        return sum(1 for row in self.rows if row.get("valid"))

    @property
    def peak_rss_mb(self) -> float:
        """Highest per-trial peak RSS observed for this scenario (MiB)."""
        return max((float(row.get("peak_rss_mb", 0.0)) for row in self.rows),
                   default=0.0)


@dataclass
class SuiteResult:
    """Ordered scenario results of one suite run."""

    suite: str
    scenarios: List[ScenarioResult] = field(default_factory=list)
    wall_s: float = 0.0
    #: Base-seed override the run was launched with (``repro suite run
    #: --seed N``); recorded in the aggregate so ``suite compare`` can
    #: refuse to diff runs that sampled different workloads.
    seed_override: Optional[int] = None

    def rows(self) -> List[Dict[str, object]]:
        return [row for scenario in self.scenarios for row in scenario.rows]

    def rows_for(self, scenario_name: str) -> List[Dict[str, object]]:
        for scenario in self.scenarios:
            if scenario.spec.name == scenario_name:
                return scenario.rows
        raise KeyError(f"no scenario named {scenario_name!r} in suite {self.suite!r}")


def run_trial(spec: ScenarioSpec, trial: int,
              tracer: Optional[RoundTracer] = None) -> Dict[str, object]:
    """Execute one trial of ``spec`` and return its flat row.

    ``tracer`` optionally observes the trial's run (forwarded to the solver's
    network).  Tracing is observation-only, so the returned row is
    byte-identical with or without it; the caller owns closing the tracer.
    """
    graph_seed, solver_seed = trial_seeds(spec, trial)
    graph, truth = GRAPH_FAMILIES[spec.family](graph_seed, **dict(spec.family_params))
    start = time.perf_counter()
    metrics = SOLVERS[spec.solver](spec, graph, truth, solver_seed,
                                   tracer=tracer)
    wall_s = time.perf_counter() - start
    row: Dict[str, object] = {
        "scenario": spec.name,
        "family": spec.family,
        "solver": spec.solver,
        "trial": trial,
        "graph_seed": graph_seed,
        "solver_seed": solver_seed,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
    }
    row.update(metrics)
    row["wall_s"] = round(wall_s, 4)
    row["peak_rss_mb"] = peak_rss_mb()
    return row


def run_instrumented_trial(spec: ScenarioSpec, trial: int,
                           digest: bool = False):
    """Execute one trial under a :class:`~repro.obs.tracer.RoundTracer`.

    Returns ``(row, events)``.  The events are plain JSON-serializable
    dicts, so the pair crosses the process-pool boundary like any other
    result and the parent writes per-scenario ``TRACE_*.jsonl`` /
    ``DIGEST_*.jsonl`` artifacts in deterministic trial order.  With
    ``digest`` the round events carry the chained digest and the row
    additionally carries the run's final chain as ``state_digest`` (a
    non-metric key: identity, not measurement).
    """
    # The header embeds the spec so `repro diff --bisect` can re-run the
    # exact workload in fine mode from the stream alone.
    tracer = RoundTracer(meta={
        "scenario": spec.name,
        "trial": trial,
        "solver": spec.solver,
        "family": spec.family,
        "spec": spec_payload(spec),
    }, digest=digest)
    try:
        row = run_trial(spec, trial, tracer=tracer)
    finally:
        tracer.close()
    if digest:
        row["state_digest"] = tracer.events[-1]["chain"]
    return row, tracer.events


@contextlib.contextmanager
def _workers_can_import_repro():
    """Ensure worker processes can import ``repro``, whatever the start method.

    Under the ``spawn`` start method a worker must import this module just to
    unpickle the submitted task, *before* any initializer could patch
    ``sys.path`` — so a parent that made ``repro`` importable by mutating
    ``sys.path`` (rather than via ``PYTHONPATH``) needs the package root
    exported through the environment, which every start method inherits.
    """
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    previous = os.environ.get("PYTHONPATH")
    parts = previous.split(os.pathsep) if previous else []
    if pkg_root in parts:
        yield
        return
    os.environ["PYTHONPATH"] = os.pathsep.join([pkg_root] + parts)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = previous


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    workers: int = 1,
    suite: str = "adhoc",
    progress=None,
    profile_dir: Optional[Path] = None,
    trace_dir: Optional[Path] = None,
    digest_dir: Optional[Path] = None,
) -> SuiteResult:
    """Run every trial of every spec, serially or across worker processes.

    ``progress`` is an optional callable receiving one completed trial row at
    a time (the CLI uses it for live output).  Rows are always assembled in
    (spec order, trial order), so a parallel run's result is identical to a
    serial run's apart from wall-clock fields.

    ``profile_dir`` enables evidence gathering for perf work: every scenario
    is wrapped in ``cProfile`` and its top-``PROFILE_TOP`` cumulative hotspots
    are written to ``PROFILE_<scenario>.txt`` in that directory, next to the
    trial artifacts.  Profiling forces serial execution (``workers`` is
    ignored) and inflates the ``wall_s`` fields with profiler overhead, so a
    profiled run must not be used to refresh timing baselines.

    ``trace_dir`` or ``digest_dir`` attaches one
    :class:`~repro.obs.tracer.RoundTracer` to every trial (digesting when
    ``digest_dir`` is set, which also stamps each row's ``state_digest``).
    ``trace_dir`` receives one ``TRACE_<scenario>.jsonl`` per scenario with
    every event (all trials, in trial order); ``digest_dir`` one
    ``DIGEST_<scenario>.jsonl`` with the machine-dependent fields removed.
    Instrumentation is observation-only: rows and aggregates are
    byte-identical to an uninstrumented run, whatever the worker count.
    """
    for spec in specs:
        validate_spec(spec)
    tasks = [(index, spec, trial)
             for index, spec in enumerate(specs)
             for trial in range(spec.trials)]
    results: Dict[tuple, Dict[str, object]] = {}
    events: Dict[tuple, List[Dict[str, object]]] = {}
    instrumented = trace_dir is not None or digest_dir is not None
    suite_start = time.perf_counter()

    def record(key, outcome) -> Dict[str, object]:
        # One unpacking seam for all three execution paths: instrumented
        # tasks return (row, events), plain ones just the row.
        if instrumented:
            results[key], events[key] = outcome
        else:
            results[key] = outcome
        return results[key]

    if instrumented:
        # functools.partial of a module-level function pickles under every
        # process-pool start method.
        task = functools.partial(run_instrumented_trial,
                                 digest=digest_dir is not None)
    else:
        task = run_trial
    if profile_dir is not None:
        profile_dir = Path(profile_dir)
        profile_dir.mkdir(parents=True, exist_ok=True)
        for index, spec in enumerate(specs):
            profiler = cProfile.Profile()
            for trial in range(spec.trials):
                profiler.enable()
                outcome = task(spec, trial)
                profiler.disable()
                row = record((index, trial), outcome)
                if progress is not None:
                    progress(row)
            stream = io.StringIO()
            pstats.Stats(profiler, stream=stream).sort_stats(
                "cumulative").print_stats(PROFILE_TOP)
            (profile_dir / profile_filename(spec.name)).write_text(stream.getvalue())
    elif workers <= 1 or len(tasks) <= 1:
        for index, spec, trial in tasks:
            row = record((index, trial), task(spec, trial))
            if progress is not None:
                progress(row)
    else:
        with _workers_can_import_repro(), ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
        ) as pool:
            futures = {
                pool.submit(task, spec, trial): (index, trial)
                for index, spec, trial in tasks
            }
            for future, key in futures.items():
                row = record(key, future.result())
                if progress is not None:
                    progress(row)

    if instrumented:
        for directory in (trace_dir, digest_dir):
            if directory is not None:
                Path(directory).mkdir(parents=True, exist_ok=True)
        for index, spec in enumerate(specs):
            stream = [event
                      for trial in range(spec.trials)
                      for event in events[(index, trial)]]
            if trace_dir is not None:
                write_events(Path(trace_dir) / trace_filename(spec.name),
                             stream)
            if digest_dir is not None:
                write_events(Path(digest_dir) / digest_filename(spec.name),
                             deterministic_events(stream))

    suite_result = SuiteResult(suite=suite)
    for index, spec in enumerate(specs):
        rows = [results[(index, trial)] for trial in range(spec.trials)]
        scenario_wall = sum(float(row["wall_s"]) for row in rows)
        suite_result.scenarios.append(
            ScenarioResult(spec=spec, rows=rows, wall_s=round(scenario_wall, 4))
        )
    suite_result.wall_s = round(time.perf_counter() - suite_start, 4)
    return suite_result


def select_scenarios(name: str, only: Optional[Sequence[str]] = None) -> List[ScenarioSpec]:
    """Suite ``name``'s scenarios, restricted to the ``only`` names if given.

    Raises ``ValueError`` naming the unknown suite or scenarios.
    """
    specs = get_suite(name)
    if only:
        wanted = set(only)
        unknown = wanted - {spec.name for spec in specs}
        if unknown:
            raise ValueError(
                f"suite {name!r} has no scenarios named: {sorted(unknown)}"
            )
        specs = [spec for spec in specs if spec.name in wanted]
    return specs


def run_suite(
    name: str,
    workers: int = 1,
    backend: Optional[str] = None,
    trials: Optional[int] = None,
    progress=None,
    only: Optional[Sequence[str]] = None,
    profile_dir: Optional[Path] = None,
    seed: Optional[int] = None,
    faults: Optional[Mapping[str, object]] = None,
    trace_dir: Optional[Path] = None,
    digest_dir: Optional[Path] = None,
) -> SuiteResult:
    """Resolve a named suite and run it, with optional global overrides.

    ``backend`` overrides the transport backend of every scenario (a
    performance-only knob: the aggregate artifact is identical across
    backends, which the CI smoke job exploits to cross-check the transport
    engine).  ``trials`` overrides every scenario's trial count.  ``only``
    restricts the run to the named scenarios (unknown names are an error) —
    note the resulting aggregate then covers a scenario *subset* and will not
    gate cleanly against a full-suite baseline.  ``profile_dir`` is forwarded
    to :func:`run_scenarios` (per-scenario cProfile hotspots).

    ``seed`` overrides every scenario's base seed — the run then samples
    *different* graphs and randomness, so the override is recorded in the
    aggregate (``seed_override``) and ``suite compare`` refuses to diff it
    against a baseline produced with a different seed.  ``faults`` replaces
    every scenario's fault plan (``{"drop": 0.01}``-style mapping, from
    ``repro suite run --faults ...``); the aggregate records the plan per
    scenario, so a faulted run never gates silently against a clean
    baseline either.
    """
    from dataclasses import replace

    specs = select_scenarios(name, only)
    if backend is not None:
        specs = [replace(spec, backend=backend) for spec in specs]
    if trials is not None:
        specs = [replace(spec, trials=trials) for spec in specs]
    if faults is not None:
        specs = [replace(spec, faults=dict(faults)) for spec in specs]
    if seed is not None:
        specs = [replace(spec, seed=int(seed)) for spec in specs]
    result = run_scenarios(specs, workers=workers, suite=name,
                           progress=progress, profile_dir=profile_dir,
                           trace_dir=trace_dir, digest_dir=digest_dir)
    result.seed_override = None if seed is None else int(seed)
    return result
