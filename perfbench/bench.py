"""One benchmark run: set up, warm up, solve in whole cycles, verify, report.

A run generates its workload's instances from the run seed, solves one small
warm-up instance that no timing sees, then solves every instance once per
cycle until another cycle would overrun the run's seconds (at least one
cycle always runs).  Whole cycles keep every instance equally weighted, so
the count metrics (rounds, bits, fallback nodes) are exact for a seed.

Untraced runs report the end-to-end metrics:

* ``solve_s`` — the median solve time;
* ``edges_per_s`` — ``Σm / Σt`` over the run's solves;
* ``setup_s`` — the median time to generate one instance;
* ``peak_rss_mb`` — the largest per-solve peak RSS (reset before each solve);
* ``rounds`` / ``bits_per_edge`` — means over the run's distinct instances.

Traced runs follow each untraced solve with a traced solve of the same
instance and report the per-layer metrics as per-instance means over the
traced solves; the pair's fingerprints must agree, which proves the spans
observation-only.  Every solve is verified by the workload's own check, and
a repeated solve must reproduce the instance's fingerprint.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.utils.rng import derive_seed

from perfbench.rss import PeakRss
from perfbench.tracing import NULL_RECORDER, Recorder, patched
from perfbench.workloads import BACKEND, LEDGER, WORKLOADS, Instance, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent

#: ``name -> unit`` of the end-to-end metrics, in report order.
END_TO_END_UNITS = {
    "solve_s": "s",
    "edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rounds": "rounds",
    "bits_per_edge": "bits",
}

#: ``name -> unit`` of the per-layer metrics, in report order.
PER_LAYER_UNITS = {
    "graphs.gen_s": "s",
    "graphs.peak_rss_mb": "MiB",
    "congest.topology.build_s": "s",
    "congest.topology.builds": "count",
    "congest.topology.peak_rss_mb": "MiB",
    "congest.transport.self_s": "s",
    "congest.transport.calls": "count",
    "congest.transport.messages": "count",
    "congest.transport.bits": "bits",
    "congest.columnar.sweep.self_s": "s",
    "congest.columnar.sweep.edges": "count",
    "congest.columnar.sweep.declines": "count",
    "sampling.similarity.self_s": "s",
    "sampling.similarity.edges": "count",
    "sampling.triangles.self_s": "s",
    "sampling.sparsity.self_s": "s",
    "utils.rng.self_s": "s",
    "utils.rng.calls": "count",
    "core.acd.self_s": "s",
    "core.acd.calls": "count",
    "core.acd.dense_frac": "ratio",
    "core.acd.peak_rss_mb": "MiB",
    "core.sparse_phase.self_s": "s",
    "core.sparse_phase.colored_frac": "ratio",
    "core.sparse_phase.peak_rss_mb": "MiB",
    "core.dense_phase.self_s": "s",
    "core.dense_phase.colored_frac": "ratio",
    "core.dense_phase.peak_rss_mb": "MiB",
    "core.shattering.self_s": "s",
    "core.shattering.nodes": "count",
    "core.shattering.rounds": "rounds",
    "core.shattering.peak_rss_mb": "MiB",
    "core.state.init_s": "s",
    "core.validate.self_s": "s",
    "core.d1lc.self_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics that are a layer's self time, keyed by metric name.
_SELF_TIME_METRICS = {
    "graphs.gen_s": "graphs",
    "congest.topology.build_s": "congest.topology",
    "congest.transport.self_s": "congest.transport",
    "congest.columnar.sweep.self_s": "congest.columnar.sweep",
    "sampling.similarity.self_s": "sampling.similarity",
    "sampling.triangles.self_s": "sampling.triangles",
    "sampling.sparsity.self_s": "sampling.sparsity",
    "utils.rng.self_s": "utils.rng",
    "core.acd.self_s": "core.acd",
    "core.sparse_phase.self_s": "core.sparse_phase",
    "core.dense_phase.self_s": "core.dense_phase",
    "core.shattering.self_s": "core.shattering",
    "core.state.init_s": "core.state",
    "core.validate.self_s": "core.validate",
    "core.d1lc.self_s": "core.d1lc",
}


@dataclass
class Solve:
    """One timed solve of one instance."""

    instance: int
    seconds: float
    peak_mb: float
    outcome: Outcome
    #: The traced solve's recorder; ``None`` for untraced solves.
    recorder: Optional[Recorder] = None
    #: The solve raised instead of returning; it has no timing.
    raised: bool = False


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    fingerprint: str
    problems: List[str]
    info: Dict[str, object]
    provenance: Dict[str, object]
    instances: List[Instance] = field(repr=False, default_factory=list)
    solves: List[Solve] = field(repr=False, default_factory=list)

    def as_line(self) -> Dict[str, object]:
        """The result line the benchmark prints last."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: Workload, seed: int, seconds: float, rss: PeakRss) -> Dict[str, object]:
    import networkx
    import numpy

    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "backend": BACKEND,
        "ledger": LEDGER,
        "shards": 1,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "instances": workload.instances,
        "rss_source": rss.source,
    }


def _solve(workload: Workload, instance: Instance, index: int, rss: PeakRss,
           rec: Optional[Recorder]) -> Solve:
    gc.collect()
    with patched(rec) if rec is not None else contextlib.nullcontext():
        rss.reset()
        start = perf_counter()
        raw = workload.solve(instance, NULL_RECORDER if rec is None else rec)
        seconds = perf_counter() - start
        peak = rss.peak_mb()
    return Solve(index, seconds, peak, workload.check(instance, raw), rec)


def _failed_solve(index: int, error: Exception, rec: Optional[Recorder]) -> Solve:
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)
    outcome = Outcome("", 0, 0, 0, [f"{type(error).__name__}: {error}"])
    return Solve(index, 0.0, 0.0, outcome, rec, raised=True)


def _generate(workload: Workload, seed: int, size: dict, rec) -> Tuple[Instance, float]:
    gc.collect()
    start = perf_counter()
    instance = workload.generate(seed, size, rec)
    seconds = perf_counter() - start
    instance.freeze()
    return instance, seconds


def _warm_up(workload: Workload, seed: int, rss: PeakRss, trace: bool) -> None:
    """Solve one tiny instance so imports and lazy set-up miss the timings."""
    instance, _ = _generate(workload, derive_seed(workload.name, seed, "warm-up"),
                            workload.sizes["tiny"], NULL_RECORDER)
    _solve(workload, instance, -1, rss, None)
    if trace:
        _solve(workload, instance, -1, rss, Recorder(rss))


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> RunResult:
    """Run workload ``name`` for about ``seconds`` and collect its metrics."""
    workload = WORKLOADS[name]
    rss = PeakRss()
    _warm_up(workload, seed, rss, trace)

    setup_rec = Recorder(rss) if trace else NULL_RECORDER
    instances, setup_times = [], []
    for i in range(workload.instances):
        instance, elapsed = _generate(
            workload, derive_seed(name, seed, i), workload.sizes[size], setup_rec
        )
        instances.append(instance)
        setup_times.append(elapsed)

    solves: List[Solve] = []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for index, instance in enumerate(instances):
            for rec in (None, Recorder(rss)) if trace else (None,):
                try:
                    solves.append(_solve(workload, instance, index, rss, rec))
                except Exception as error:  # counted as a failed solve, run goes on
                    solves.append(_failed_solve(index, error, rec))
        now = perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break

    fingerprints: Dict[int, str] = {}
    problems: List[str] = []
    failed = 0
    for solve in solves:
        own = list(solve.outcome.problems)
        first = fingerprints.setdefault(solve.instance, solve.outcome.fingerprint)
        if solve.outcome.fingerprint != first:
            kind = "traced" if solve.recorder is not None else "repeated"
            own.append(f"instance {solve.instance}: {kind} solve changed the fingerprint")
        if own:
            failed += 1
            problems.extend(own)

    firsts = [next(s for s in solves if s.instance == i) for i in range(len(instances))]
    untraced = [s for s in solves if s.recorder is None and not s.raised]
    if trace:
        metrics = _per_layer(setup_rec, solves, len(instances))
    else:
        metrics = _end_to_end(instances, untraced, firsts, setup_times)
    fingerprint = hashlib.sha256(
        "".join(s.outcome.fingerprint for s in firsts).encode("ascii")
    ).hexdigest()
    nodes = sum(inst.graph.number_of_nodes() for inst in instances)
    info = {
        "failed_frac": failed / len(solves),
        "cycles": len(solves) // (len(instances) * (2 if trace else 1)),
        "solve_seconds": [s.seconds for s in untraced],
        "setup_seconds": setup_times,
    }
    if workload.coloring:
        info["fallback_frac"] = sum(s.outcome.fallback_nodes for s in firsts) / nodes
    return RunResult(
        workload=name, seed=seed, trace=trace, metrics=metrics, attempted=len(solves),
        failed=failed, fingerprint=fingerprint, problems=problems[:10], info=info,
        provenance=provenance(workload, seed, seconds, rss), instances=instances,
        solves=solves,
    )


def _end_to_end(instances: List[Instance], untraced: List[Solve], firsts: List[Solve],
                setup_times: List[float]) -> Dict[str, Tuple[float, str]]:
    edges = [inst.graph.number_of_edges() for inst in instances]
    values = {
        "solve_s": statistics.median(s.seconds for s in untraced),
        "edges_per_s": sum(edges[s.instance] for s in untraced)
        / sum(s.seconds for s in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(s.peak_mb for s in untraced),
        "rounds": statistics.fmean(s.outcome.rounds for s in firsts),
        "bits_per_edge": statistics.fmean(
            s.outcome.total_bits / edges[s.instance] for s in firsts
        ),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _per_layer(setup_rec: Recorder, solves: List[Solve],
               instance_count: int) -> Dict[str, Tuple[float, str]]:
    """Per-instance means over the traced solves (peaks: the maximum)."""
    traced = [s for s in solves if s.recorder is not None and not s.raised]
    untraced = [s for s in solves if s.recorder is None and not s.raised]
    self_times: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    counts: Dict[Tuple[str, str], float] = defaultdict(float)
    peaks: Dict[str, float] = dict(setup_rec.peaks)
    for solve in traced:
        rec = solve.recorder
        for layer, seconds in rec.self_times().items():
            self_times[layer] += seconds
        for layer, number in rec.calls().items():
            calls[layer] += number
        for layer, by_key in rec.counts.items():
            for key, amount in by_key.items():
                counts[(layer, key)] += amount
        for layer, peak in rec.peaks.items():
            peaks[layer] = max(peaks.get(layer, 0.0), peak)
    per = float(len(traced))
    self_times = {layer: total / per for layer, total in self_times.items()}
    calls = {layer: total / per for layer, total in calls.items()}
    self_times["graphs"] = setup_rec.self_times().get("graphs", 0.0) / instance_count

    def count(layer: str, key: str) -> float:
        return counts.get((layer, key), 0.0) / per

    def ratio(layer: str, part: str, whole: str) -> float:
        total = count(layer, whole)
        return count(layer, part) / total if total else 0.0

    values = {metric: self_times.get(layer, 0.0) for metric, layer in _SELF_TIME_METRICS.items()}
    values.update({
        "congest.topology.builds": calls.get("congest.topology", 0.0),
        "congest.transport.calls": calls.get("congest.transport", 0.0),
        "congest.transport.messages": count("congest.transport", "messages"),
        "congest.transport.bits": count("congest.transport", "bits"),
        "congest.columnar.sweep.edges": count("congest.columnar.sweep", "edges"),
        "congest.columnar.sweep.declines": count("congest.columnar.sweep", "declines"),
        "sampling.similarity.edges": count("sampling.similarity", "edges"),
        "utils.rng.calls": calls.get("utils.rng", 0.0),
        "core.acd.calls": calls.get("core.acd", 0.0),
        "core.acd.dense_frac": ratio("core.acd", "dense", "active"),
        "core.sparse_phase.colored_frac": ratio("core.sparse_phase", "colored", "targeted"),
        "core.dense_phase.colored_frac": ratio("core.dense_phase", "colored", "targeted"),
        "core.shattering.nodes": count("core.shattering", "nodes"),
        "core.shattering.rounds": count("core.shattering", "rounds"),
        "trace.overhead_frac": statistics.median(s.seconds for s in traced)
        / statistics.median(s.seconds for s in untraced) - 1.0,
    })
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "MiB":
            values[metric] = peaks.get(metric[: -len(".peak_rss_mb")], 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
