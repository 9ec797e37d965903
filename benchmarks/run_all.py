"""Run every experiment's ``measure()`` and write JSON perf snapshots.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # all experiments
    PYTHONPATH=src python benchmarks/run_all.py e12 e16    # a subset
    PYTHONPATH=src python benchmarks/run_all.py --suite smoke --workers 4

Each experiment module exposes ``measure()`` (the paper-relevant series
without the pytest-benchmark harness).  This driver times each one, prints
its table, and writes:

* ``BENCH_all.json`` — wall-clock + rows for every experiment that ran;
* ``BENCH_transport.json`` — the transport-engine snapshot (E12 on both
  backends plus the E16 dict-vs-columnar comparison), the perf gate for the
  Topology/Transport/Ledger engine.

Snapshots land in the repository root (or ``--out DIR``).

The scenario-level workloads live in :mod:`repro.experiments`; E09, E11, E12
and E16 above are thin wrappers over its suites, and ``--suite NAME``
delegates to the subsystem's parallel runner and artifact store directly
(the ``BENCH_suite.json`` it writes is the committed regression baseline —
see ``repro suite compare``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS = {
    "e01": "bench_e01_representative_hash",
    "e02": "bench_e02_estimate_similarity",
    "e03": "bench_e03_joint_sample",
    "e04": "bench_e04_sparsity",
    "e05": "bench_e05_triangles",
    "e06": "bench_e06_four_cycles",
    "e07": "bench_e07_multitrial",
    "e08": "bench_e08_acd",
    "e09": "bench_e09_d1lc_rounds",
    "e10": "bench_e10_high_degree",
    "e11": "bench_e11_d1c_vs_baseline",
    "e12": "bench_e12_bandwidth",
    "e13": "bench_e13_setops_figure",
    "e14": "bench_e14_leader",
    "e15": "bench_e15_putaside",
    "e16": "bench_e16_transport",
}


def run_measure(module_name: str, **kwargs):
    module = importlib.import_module(f"benchmarks.{module_name}")
    start = time.perf_counter()
    rows = module.measure(**kwargs)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def transport_snapshot(reuse: dict = None) -> dict:
    """Time the transport-sensitive workloads on both backends.

    ``reuse`` maps experiment keys to already-measured ``{seconds, rows}``
    entries from the main loop (e12 runs on the default columnar backend
    there), so a default invocation never measures the same workload twice.
    """
    from repro.congest import DEFAULT_BACKEND, TRANSPORT_BACKENDS

    reuse = reuse or {}
    snapshot: dict = {"experiments": {}}
    timings = {}
    for backend in TRANSPORT_BACKENDS:
        if backend == DEFAULT_BACKEND and "e12" in reuse:
            entry = reuse["e12"]
        else:
            rows, elapsed = run_measure("bench_e12_bandwidth", backend=backend)
            entry = {"seconds": round(elapsed, 3), "rows": rows}
        timings[backend] = entry["seconds"]
        snapshot["experiments"][f"e12[{backend}]"] = entry
    snapshot["e12_dict_over_columnar"] = round(
        timings["dict"] / max(timings["columnar"], 1e-9), 3
    )
    if "e16" in reuse:
        entry = reuse["e16"]
    else:
        rows, elapsed = run_measure("bench_e16_transport")
        entry = {"seconds": round(elapsed, 3), "rows": rows}
    snapshot["experiments"]["e16"] = entry
    snapshot["e16_speedups"] = {row["workload"]: row["speedup"] for row in entry["rows"]}
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        help="experiment keys (e01..e16); default: all")
    parser.add_argument("--out", type=Path, default=REPO_ROOT,
                        help="directory for the JSON snapshots")
    parser.add_argument("--skip-transport", action="store_true",
                        help="skip the BENCH_transport.json snapshot")
    parser.add_argument("--suite", default=None,
                        help="run a scenario suite via repro.experiments instead "
                             "of the e* measure() modules")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for --suite")
    args = parser.parse_args(argv)

    if args.suite:
        from repro.experiments import run_suite, write_suite_artifacts

        result = run_suite(args.suite, workers=args.workers)
        paths = write_suite_artifacts(result, args.out)
        peak = max((s.peak_rss_mb for s in result.scenarios), default=0.0)
        print(f"suite '{args.suite}': {len(result.rows())} trials in "
              f"{result.wall_s}s (peak RSS {peak} MiB); wrote {paths['suite']}")
        return 0

    keys = args.experiments or sorted(EXPERIMENTS)
    unknown = [k for k in keys if k not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; choose from {sorted(EXPERIMENTS)}")

    from repro.experiments import canonical_dumps
    from repro.metrics import format_table

    all_results = {}
    for key in keys:
        rows, elapsed = run_measure(EXPERIMENTS[key])
        all_results[key] = {"seconds": round(elapsed, 3), "rows": rows}
        print(format_table(rows, title=f"{key} ({elapsed:.2f}s)"))
        print()

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "BENCH_all.json").write_text(canonical_dumps(all_results))
    print(f"wrote {args.out / 'BENCH_all.json'}")

    if not args.skip_transport:
        snapshot = transport_snapshot(reuse=all_results)
        (args.out / "BENCH_transport.json").write_text(canonical_dumps(snapshot))
        print(f"wrote {args.out / 'BENCH_transport.json'} "
              f"(e12 dict/columnar wall-clock ratio: "
              f"{snapshot['e12_dict_over_columnar']})")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT))
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
