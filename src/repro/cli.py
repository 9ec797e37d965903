"""Command-line interface for running the reproduction's main pipelines.

The CLI wraps the library's entry points so that the headline experiments can
be run without writing Python::

    python -m repro.cli color      --n 200 --p 0.08 --problem d1c
    python -m repro.cli color      --n 150 --p 0.1  --problem d1lc --color-bits 60
    python -m repro.cli acd        --cliques 4 --clique-size 18
    python -m repro.cli triangles  --n 150 --eps 0.3
    python -m repro.cli baseline   --n 200 --p 0.08
    python -m repro.cli suite list
    python -m repro.cli suite run smoke --workers 4
    python -m repro.cli suite run scale --backend dict
    python -m repro.cli suite run smoke --profile --out /tmp/prof
    python -m repro.cli suite run smoke --faults drop=0.01,corrupt=1e-4
    python -m repro.cli suite run robustness --workers 4
    python -m repro.cli suite run smoke --seed 7 --out /tmp/reseeded
    python -m repro.cli suite run smoke --trace /tmp/traces --progress
    python -m repro.cli suite run smoke --digest /tmp/digests
    python -m repro.cli diff /tmp/a/DIGEST_gnp-d1c.jsonl /tmp/b/DIGEST_gnp-d1c.jsonl --bisect
    python -m repro.cli diff /tmp/a/TRACE_gnp-d1c.jsonl /tmp/b/TRACE_gnp-d1c.jsonl
    python -m repro.cli trace summarize TRACE_powerlaw-d1lc.jsonl
    python -m repro.cli suite compare --baseline BENCH_suite.json
    python -m repro.cli suite compare --baseline BENCH_suite.json --timing-budget 50
    python -m repro.cli suite compare --baseline BENCH_robustness.json
    python -m repro.cli trace summarize TRACE_gnp-d1c.jsonl --json
    python -m repro.cli report smoke --dir /tmp/out
    python -m repro.cli report gnp-d1c --dir /tmp/out --html /tmp/report.html
    python -m repro.cli report trend --dir /tmp/out

Each subcommand prints a plain-text table of the measurements the paper's
statements are about (rounds, bandwidth, validity, detection quality).  The
``suite`` subcommands drive the experiment orchestration subsystem
(:mod:`repro.experiments`): declarative scenario suites, a parallel trial
runner, artifact snapshots, and the regression gate.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.baselines import johansson_coloring
from repro.congest import DEFAULT_BACKEND, TRANSPORT_BACKENDS, Network
from repro.core import ColoringParameters, solve_d1c, solve_d1lc, solve_delta_plus_one
from repro.core.acd import compute_acd
from repro.graphs import (
    degree_plus_one_lists,
    gnp_graph,
    huge_color_space_lists,
    planted_almost_cliques,
)
from repro.graphs.generators import triangle_rich_graph
from repro.metrics import format_table
from repro.sampling import detect_triangle_rich_edges
from repro.sampling.triangles import true_triangle_count


class UserError(Exception):
    """A bad argument or unreadable input: one stderr line, exit code 2."""


@contextmanager
def _user_input():
    """Report a ValueError raised while building inputs from argv as a UserError."""
    try:
        yield
    except ValueError as exc:
        raise UserError(str(exc)) from None


def _load(loader, path: str):
    """``loader(Path(path))``, reporting an unreadable file as a UserError."""
    try:
        return loader(Path(path))
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise UserError(f"cannot read {path}: {reason}") from None


def _check_budgets(args: argparse.Namespace, *names: str) -> None:
    """Reject a negative percentage budget (an unset one is ``None``)."""
    for name in names:
        if (getattr(args, name) or 0) < 0:
            raise UserError(f"--{name.replace('_', '-')} must be >= 0, "
                            f"got {getattr(args, name):g}")


def _coloring_rows(name: str, result) -> List[dict]:
    return [{
        "run": name,
        "valid": result.is_valid,
        "rounds": result.rounds,
        "randomized rounds": result.randomized_rounds,
        "fallback nodes": result.fallback_nodes,
        "max bits/edge/round": result.max_edge_bits,
        "budget": result.bandwidth_bits,
    }]


def cmd_color(args: argparse.Namespace) -> int:
    if args.color_bits < 0:
        raise UserError(f"--color-bits must be >= 0, got {args.color_bits}")
    if args.color_bits and args.problem != "d1lc":
        raise UserError(f"--color-bits applies only to --problem d1lc, "
                        f"got --problem {args.problem}")
    with _user_input():
        graph = gnp_graph(args.n, args.p, seed=args.seed)
        if args.problem == "d1lc" and args.color_bits:
            lists = huge_color_space_lists(graph, color_space_bits=args.color_bits, seed=args.seed)
        elif args.problem == "d1lc":
            lists = degree_plus_one_lists(graph, seed=args.seed)
    params = ColoringParameters.small(seed=args.seed, uniform=args.uniform)
    if args.problem == "d1c":
        result = solve_d1c(graph, params=params, mode=args.mode,
                           backend=args.backend)
    elif args.problem == "delta+1":
        result = solve_delta_plus_one(graph, params=params, mode=args.mode,
                                      backend=args.backend)
    else:
        result = solve_d1lc(graph, lists, params=params, mode=args.mode,
                            backend=args.backend)
    print(format_table(_coloring_rows(args.problem, result), title="coloring run"))
    print("\nrounds by phase:")
    for phase, rounds in sorted(result.rounds_by_phase.items()):
        print(f"  {phase:>10}: {rounds}")
    return 0 if result.is_valid else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    with _user_input():
        graph = gnp_graph(args.n, args.p, seed=args.seed)
    pipeline = solve_d1c(graph, params=ColoringParameters.small(seed=args.seed),
                         backend=args.backend)
    baseline = johansson_coloring(graph, seed=args.seed, backend=args.backend)
    rows = _coloring_rows("pipeline", pipeline) + _coloring_rows("johansson", baseline)
    print(format_table(rows, title="pipeline vs random-trial baseline"))
    return 0 if pipeline.is_valid and baseline.is_valid else 1


def cmd_acd(args: argparse.Namespace) -> int:
    with _user_input():
        planted = planted_almost_cliques(
            num_cliques=args.cliques, clique_size=args.clique_size,
            num_sparse=args.sparse, seed=args.seed,
        )
    params = ColoringParameters.small(seed=args.seed, uniform=args.uniform)
    network = Network(planted.graph, backend=args.backend)
    acd = compute_acd(network, params)
    summary = acd.partition_summary()
    summary["rounds"] = acd.rounds_used
    summary["planted cliques"] = len(planted.cliques)
    print(format_table([summary], title="almost-clique decomposition"))
    return 0


def cmd_triangles(args: argparse.Namespace) -> int:
    with _user_input():
        planted = triangle_rich_graph(n=args.n, planted_cliques=3,
                                      clique_size=14, seed=args.seed)
        network = Network(planted.graph, backend=args.backend)
        # A bad eps is rejected before the first round, so a ValueError
        # from the detection is an argument error, not a failed run.
        result = detect_triangle_rich_edges(network, eps=args.eps,
                                            seed=args.seed)
    rich = flagged_rich = 0
    for u, v in planted.graph.edges():
        if true_triangle_count(network, u, v) >= 2 * result.threshold:
            rich += 1
            flagged_rich += result.is_flagged(u, v)
    rows = [{
        "edges": planted.graph.number_of_edges(),
        "threshold (εΔ)": round(result.threshold, 1),
        "rich edges": rich,
        "rich edges flagged": flagged_rich,
        "rounds": result.rounds_used,
    }]
    print(format_table(rows, title="local triangle detection"))
    return 0


def _parse_faults(text: str) -> dict:
    """Parse ``drop=0.01,corrupt=1e-4,throttle=0.5`` into a fault params dict.

    The CLI covers the numeric fault axes; crash schedules and per-edge
    delays are structured mappings and stay spec-level (see
    :class:`repro.faults.FaultPlan`).  Key validation happens in
    ``FaultPlan.from_params`` so typos get the canonical error message.
    """
    params: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UserError(
                f"--faults expects comma-separated key=value pairs, got {part!r}"
            )
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise UserError(f"--faults {key.strip()}: not a number: {value!r}") from None
    from repro.faults import FaultPlan

    try:
        FaultPlan.from_params(params)
    except (TypeError, ValueError) as exc:
        raise UserError(f"--faults: {exc}") from None
    return params


def _suite_summary_rows(summary: dict, timing: Optional[dict] = None) -> List[dict]:
    rows = []
    scenario_timing = (timing or {}).get("scenarios", {})
    for name, entry in summary["scenarios"].items():
        metrics = entry["metrics"]
        row = {
            "scenario": name,
            "solver": entry["solver"],
            "valid": f"{entry['valid_trials']}/{entry['trials']}",
            "rounds (mean)": metrics.get("rounds", {}).get("mean", "-"),
            "bits/edge (mean)": metrics.get("bits_per_edge", {}).get("mean", "-"),
            "colors (mean)": metrics.get("colors_used", {}).get("mean", "-"),
        }
        if "faults" in entry:
            # Scalar axes print as k=v; schedule axes (crash/delay) print
            # their key alone — every configured axis stays visible.
            row["faults"] = ",".join(
                k if isinstance(v, dict) else f"{k}={v}"
                for k, v in sorted(entry["faults"].items())
            )
            row["dropped (mean)"] = metrics.get(
                "dropped_messages", {}).get("mean", "-")
        if name in scenario_timing:
            row["wall s"] = scenario_timing[name]
        rows.append(row)
    return rows


def _select_suite(name: str, only=None):
    """The suite's scenarios (``--only`` applied); unknown names are a UserError."""
    from repro.experiments.runner import select_scenarios

    with _user_input():
        return select_scenarios(name, only)


def cmd_suite_list(args: argparse.Namespace) -> int:
    from repro.experiments import get_suite, suite_names

    if args.suite:
        specs = _select_suite(args.suite)
        print(format_table([spec.describe() for spec in specs],
                           title=f"suite '{args.suite}' ({len(specs)} scenarios)"))
        return 0
    rows = []
    for name in suite_names():
        specs = get_suite(name)
        rows.append({
            "suite": name,
            "scenarios": len(specs),
            "trials": sum(spec.trials for spec in specs),
            "solvers": ",".join(sorted({spec.solver for spec in specs})),
        })
    print(format_table(rows, title="scenario suites (repro suite list <name> for detail)"))
    return 0


def cmd_suite_run(args: argparse.Namespace) -> int:
    from repro.experiments import (
        aggregate_suite, profile_filename, run_suite, timing_summary,
        write_suite_artifacts,
    )

    from repro.obs import current_rss_mb, digest_filename, trace_filename

    _select_suite(args.suite, args.only)
    if args.workers < 1:
        raise UserError(f"--workers must be >= 1, got {args.workers}")
    if args.trials is not None and args.trials < 1:
        raise UserError(f"--trials must be >= 1, got {args.trials}")
    faults = _parse_faults(args.faults) if args.faults else None
    started = time.perf_counter()

    def progress(row):
        if args.verbose:
            status = "ok" if row.get("valid") else "INVALID"
            print(f"  {row['scenario']} trial {row['trial']}: {status} "
                  f"({row['wall_s']}s)")
        if args.progress:
            # stderr, one plain line per completed trial: never disturbs
            # stdout tables or artifact bytes.
            print(f"[suite] {row['scenario']} trial {row['trial']}: "
                  f"rounds={row.get('rounds', '-')} "
                  f"elapsed={round(time.perf_counter() - started, 1)}s "
                  f"rss={current_rss_mb()}MiB", file=sys.stderr, flush=True)

    out_dir = Path(args.out)
    profile_dir = out_dir if args.profile else None
    trace_dir = Path(args.trace) if args.trace else None
    digest_dir = Path(args.digest) if args.digest else None
    if args.profile and args.workers > 1:
        print("profiling forces serial execution; ignoring --workers")
    result = run_suite(
        args.suite, workers=args.workers, backend=args.backend,
        trials=args.trials,
        progress=progress if (args.verbose or args.progress) else None,
        only=args.only, profile_dir=profile_dir, seed=args.seed,
        faults=faults, trace_dir=trace_dir,
        digest_dir=digest_dir,
    )
    summary = aggregate_suite(result)
    timing = timing_summary(result)
    # A profiled run's wall-clock is inflated by cProfile overhead: never
    # let it refresh the timing artifact the --timing-budget gate reads.
    paths = write_suite_artifacts(result, out_dir, summary=summary,
                                  timing=not args.profile)
    print(format_table(
        _suite_summary_rows(summary, timing),
        title=f"suite '{args.suite}': {len(result.scenarios)} scenarios, "
              f"{len(result.rows())} trials, {result.wall_s}s "
              f"(workers={args.workers})",
    ))
    written = ", ".join(str(paths[kind]) for kind in ("suite", "trials", "timing")
                        if kind in paths)
    print(f"\nwrote {written}")
    # Append this run to the out dir's run-history registry (see
    # `repro report trend`).  Observation-only: the record is derived from
    # the artifacts just written, never read back into a run.
    from repro.obs.analytics import RUNS_FILENAME, append_run, run_record

    append_run(out_dir / RUNS_FILENAME, run_record(
        summary, timing=None if args.profile else timing,
        timestamp=time.time(),
        knobs={
            "backend": args.backend,
            "workers": args.workers, "trials": args.trials,
            "only": args.only, "faults": args.faults,
        },
        digest_dir=digest_dir,
    ))
    if trace_dir is not None:
        traces = ", ".join(
            str(trace_dir / trace_filename(s.spec.name))
            for s in result.scenarios
        )
        print(f"traces: {traces}")
    if digest_dir is not None:
        streams = ", ".join(
            str(digest_dir / digest_filename(s.spec.name))
            for s in result.scenarios
        )
        print(f"digests: {streams}")
    if args.profile:
        print("profiled run: timing artifact not refreshed "
              "(wall-clock includes profiler overhead)")
    if args.profile:
        profiles = ", ".join(
            profile_filename(s.spec.name) for s in result.scenarios
        )
        print(f"profiles: {profiles}")
    if args.seed is not None:
        print(f"seed override {args.seed} recorded in the aggregate "
              "(suite compare refuses baselines with a different seed)")
    # Invalid trials under an active fault plan are an *observation* — that
    # is the robustness measurement, gated by `suite compare` against the
    # committed baseline — so only effectively-clean scenarios fail the run
    # (an all-default plan like drop=0.0 runs unwrapped and gates normally).
    from repro.faults import FaultPlan

    def _perturbed(spec):
        return bool(spec.faults) and FaultPlan.coerce(spec.faults) is not None

    invalid = [s.spec.name for s in result.scenarios
               if s.valid_trials < len(s.rows) and not _perturbed(s.spec)]
    invalid_faulted = [s.spec.name for s in result.scenarios
                       if s.valid_trials < len(s.rows) and _perturbed(s.spec)]
    if invalid_faulted:
        print(f"invalid under faults (expected; gate via suite compare): "
              f"{', '.join(invalid_faulted)}")
    if invalid:
        print(f"INVALID scenarios: {', '.join(invalid)}")
        return 1
    return 0


def cmd_suite_compare(args: argparse.Namespace) -> int:
    from repro.experiments import (
        TIMING_FILENAME, aggregate_suite, compare_rss, compare_summaries,
        compare_timing, gate_passes, load_suite_summary, load_suite_timing,
        run_suite, timing_summary,
    )

    if args.workers < 1:
        raise UserError(f"--workers must be >= 1, got {args.workers}")
    _check_budgets(args, "max_regression", "timing_budget", "rss_budget")
    baseline = _load(load_suite_summary, args.baseline)
    fresh_timing = None
    wants_timing_artifact = (
        args.timing_budget is not None or args.rss_budget is not None
    )
    if args.fresh:
        fresh = _load(load_suite_summary, args.fresh)
        if wants_timing_artifact:
            # A pre-produced aggregate keeps its timing (and peak RSS) in the
            # sibling file; like the baseline's, a missing or bad one skips
            # the soft checks with a note.
            try:
                fresh_timing = load_suite_timing(
                    Path(args.fresh).parent / TIMING_FILENAME,
                    suite=fresh.get("suite"))
            except (OSError, ValueError) as exc:
                print(f"timing/RSS checks skipped: {exc}")
    else:
        suite = args.suite or baseline.get("suite")
        _select_suite(suite)
        faults = _parse_faults(args.faults) if args.faults else None
        print(f"running suite '{suite}' fresh (workers={args.workers}) ...")
        result = run_suite(
            suite, workers=args.workers, backend=args.backend,
            seed=args.seed, faults=faults,
        )
        fresh = aggregate_suite(result)
        fresh_timing = timing_summary(result)
    findings = compare_summaries(baseline, fresh,
                                 max_regression=args.max_regression / 100.0)
    if wants_timing_artifact and fresh_timing is not None:
        # The timing/RSS checks are soft by design: a missing/stale baseline
        # file (or one without this suite's entry) skips them with a note
        # instead of discarding the correctness result that was just
        # computed.
        try:
            timing_baseline = load_suite_timing(Path(args.timing_baseline),
                                                suite=fresh.get("suite"))
        except (OSError, ValueError) as exc:
            print(f"timing/RSS checks skipped: {exc}")
        else:
            if args.timing_budget is not None:
                findings.extend(compare_timing(
                    timing_baseline, fresh_timing,
                    budget=args.timing_budget / 100.0,
                    strict=args.strict_timing,
                ))
            if args.rss_budget is not None:
                findings.extend(compare_rss(
                    timing_baseline, fresh_timing,
                    budget=args.rss_budget / 100.0, strict=args.strict_rss,
                ))
    if findings:
        print(format_table(
            [f.as_row() for f in findings],
            title=f"compare vs {args.baseline} (gate: >{args.max_regression:g}% "
                  "mean regression on rounds/bits/colors, any correctness drift)",
        ))
    else:
        print("no drift: fresh aggregates identical to the baseline")
    if gate_passes(findings):
        print("\nregression gate: PASS")
        return 0
    print("\nregression gate: FAIL")
    return 1


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        load_events, render_timeline, summarize_trace, summary_as_dict,
    )

    if args.json:
        # Machine-readable shape: one key per trace file, key-sorted and
        # stable, so a script can read it without scraping tables.
        payload = {
            Path(path).name: summary_as_dict(summarize_trace(_load(load_events, path)))
            for path in args.trace
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for index, path in enumerate(args.trace):
        if index:
            print()
        events = _load(load_events, path)
        print(render_timeline(
            summarize_trace(events),
            title=f"phase timeline: {Path(path).name}",
        ))
    return 0


def _trial_ids(events) -> str:
    """The trial indices a run-event stream's headers name, for messages."""
    ids = [str(e.get("trial")) for e in events if e.get("type") == "header"]
    return ", ".join(ids) or "none"


def cmd_diff(args: argparse.Namespace) -> int:
    """Align two run-event streams; optionally bisect to the first node.

    Either side may be a TRACE_*.jsonl or a DIGEST_*.jsonl file.  Exit
    codes: 0 when the streams are identical, 1 when they diverge, 2 on
    unreadable inputs or a bad ``--trial``/``--window``.
    """
    import json
    from dataclasses import asdict

    from repro.obs import compare_traces, load_events
    from repro.obs.forensics import (
        bisect_divergence, first_divergence, render_bisect,
        render_divergence, select_trial,
    )

    if args.window < 0:
        raise UserError(f"--window must be >= 0, got {args.window}")
    events_a = _load(load_events, args.a)
    events_b = _load(load_events, args.b)
    if args.trial is not None:
        selected_a = select_trial(events_a, args.trial)
        selected_b = select_trial(events_b, args.trial)
        if not (selected_a and selected_b):
            have = "; ".join(
                f"{path} has trials {_trial_ids(events)}"
                for path, events in ((args.a, events_a), (args.b, events_b))
            )
            raise UserError(f"--trial {args.trial} is not in both streams "
                            f"({have})")
        events_a, events_b = selected_a, selected_b
    divergence = first_divergence(events_a, events_b)
    drift = compare_traces(events_a, events_b)
    report = None
    if args.bisect and divergence is not None:
        report = bisect_divergence(events_a, events_b, divergence=divergence,
                                   window=args.window)
    if args.json:
        payload: dict = {
            "identical": divergence is None,
            "divergence": None if divergence is None else divergence.as_dict(),
            "drift": [asdict(d) for d in drift],
        }
        if report is not None:
            payload["bisect"] = report.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_bisect(report) if report is not None
              else render_divergence(divergence))
        if drift:
            print(format_table([d.as_row() for d in drift],
                               title="deterministic drift"))
    return 0 if divergence is None else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import SUITE_FILENAME, load_suite_summary
    from repro.obs import (
        EVENTS_SUFFIX, TRACE_PREFIX, load_events, render_timeline,
        summarize_trace,
    )
    from repro.obs.analytics import (
        detect_trends, load_runs, render_report, suite_overview_rows,
        trend_rows,
    )
    from repro.experiments.compare import gate_passes

    _check_budgets(args, "wall_budget", "rss_budget")
    report_dir = Path(args.dir)

    if args.target == "trend":
        runs = load_runs(Path(args.runs) if args.runs
                         else report_dir / "RUNS.jsonl")
        if not runs:
            print("no run history found (suite runs append to RUNS.jsonl "
                  "in their --out directory)")
            return 0
        print(format_table(trend_rows(runs),
                           title=f"run history ({len(runs)} runs)"))
        findings = detect_trends(runs, wall_budget=args.wall_budget / 100.0,
                                 rss_budget=args.rss_budget / 100.0)
        if findings:
            print(format_table([f.as_row() for f in findings],
                               title="cross-run findings"))
        else:
            print("no cross-run drift detected")
        return 0 if gate_passes(findings) else 1

    # Scenario or suite report: gather the aggregate (when present) and the
    # matching TRACE_*.jsonl files from the report directory.
    summary = None
    suite_path = report_dir / SUITE_FILENAME
    if suite_path.exists():
        summary = _load(load_suite_summary, str(suite_path))
    traces = []
    for path in sorted(report_dir.glob(f"{TRACE_PREFIX}*{EVENTS_SUFFIX}")):
        name = path.stem[len(TRACE_PREFIX):]
        if (
            args.target == name
            or (summary is not None and summary.get("suite") == args.target)
        ):
            traces.append((name, _load(load_events, str(path))))
    if summary is not None and summary.get("suite") != args.target:
        # Scenario target: narrow the overview to the one scenario.
        scenarios = summary.get("scenarios", {})
        if args.target in scenarios:
            summary = dict(summary)
            summary["scenarios"] = {args.target: scenarios[args.target]}
        else:
            summary = None
    if summary is None and not traces:
        raise UserError(
            f"nothing to report: no {SUITE_FILENAME} for suite/scenario "
            f"{args.target!r} and no matching {TRACE_PREFIX}*{EVENTS_SUFFIX} "
            f"in {report_dir}"
        )

    if summary is not None:
        print(format_table(suite_overview_rows(summary),
                           title=f"report: {args.target}"))
    for name, events in traces:
        print()
        print(render_timeline(summarize_trace(events),
                              title=f"phase timeline: {name}"))

    html_path = Path(args.html) if args.html else (
        report_dir / f"REPORT_{args.target}.html"
    )
    html_path.parent.mkdir(parents=True, exist_ok=True)
    html_path.write_text(render_report(
        f"repro report: {args.target}", summary=summary, traces=traces,
    ))
    print(f"\nwrote {html_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduction of 'Overcoming Congestion in Distributed Coloring'"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=TRANSPORT_BACKENDS,
                       default=DEFAULT_BACKEND,
                       help="transport backend (identical accounting; "
                            "'columnar' is the numpy fast path, 'dict' the "
                            "per-message reference implementation)")

    color = sub.add_parser("color", help="run the D1LC/D1C/(Δ+1) coloring pipeline")
    color.add_argument("--n", type=int, default=200)
    color.add_argument("--p", type=float, default=0.08)
    color.add_argument("--problem", choices=["d1c", "d1lc", "delta+1"], default="d1c")
    color.add_argument("--color-bits", type=int, default=0,
                       help="draw D1LC palettes from a 2^bits color space "
                            "(Appendix D.3; --problem d1lc only)")
    color.add_argument("--mode", choices=["congest", "local"], default="congest")
    color.add_argument("--uniform", action="store_true",
                       help="use the uniform (Section 5) implementations")
    color.add_argument("--seed", type=int, default=0)
    add_backend_option(color)
    color.set_defaults(func=cmd_color)

    baseline = sub.add_parser("baseline", help="compare against the random-trial baseline")
    baseline.add_argument("--n", type=int, default=200)
    baseline.add_argument("--p", type=float, default=0.08)
    baseline.add_argument("--seed", type=int, default=0)
    add_backend_option(baseline)
    baseline.set_defaults(func=cmd_baseline)

    acd = sub.add_parser("acd", help="compute an almost-clique decomposition")
    acd.add_argument("--cliques", type=int, default=4)
    acd.add_argument("--clique-size", type=int, default=18)
    acd.add_argument("--sparse", type=int, default=20)
    acd.add_argument("--uniform", action="store_true")
    acd.add_argument("--seed", type=int, default=0)
    add_backend_option(acd)
    acd.set_defaults(func=cmd_acd)

    triangles = sub.add_parser("triangles", help="local triangle-richness detection")
    triangles.add_argument("--n", type=int, default=150)
    triangles.add_argument("--eps", type=float, default=0.3)
    triangles.add_argument("--seed", type=int, default=0)
    add_backend_option(triangles)
    triangles.set_defaults(func=cmd_triangles)

    suite = sub.add_parser(
        "suite", help="declarative scenario suites: list, run in parallel, "
                      "diff against the committed baseline"
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    s_list = suite_sub.add_parser("list", help="list suites or one suite's scenarios")
    s_list.add_argument("suite", nargs="?", default=None)
    s_list.set_defaults(func=cmd_suite_list)

    def add_suite_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (results are identical for any count)")
        p.add_argument("--backend", choices=TRANSPORT_BACKENDS, default=None,
                       help="override every scenario's transport backend "
                            "(bit-identical aggregates on either)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every scenario's base seed; recorded in "
                            "the aggregate, and suite compare refuses to diff "
                            "against a baseline with a different seed")
        p.add_argument("--faults", default=None, metavar="K=V[,K=V...]",
                       help="deterministic fault plan applied to every "
                            "scenario, e.g. drop=0.01,corrupt=1e-4,"
                            "throttle=0.5 (message-drop probability, per-bit "
                            "corruption probability, bandwidth factor); crash "
                            "schedules and per-edge delays are spec-level "
                            "knobs — see the robustness suite")

    s_run = suite_sub.add_parser("run", help="run a suite and write artifacts")
    s_run.add_argument("suite", help="suite name (see 'repro suite list')")
    add_suite_run_options(s_run)
    s_run.add_argument("--trials", type=int, default=None,
                       help="override every scenario's trial count")
    s_run.add_argument("--only", action="append", default=None, metavar="SCENARIO",
                       help="run only the named scenario (repeatable); the "
                            "resulting aggregate covers a subset and will not "
                            "gate cleanly against a full-suite baseline")
    s_run.add_argument("--out", default=".",
                       help="directory for BENCH_suite*.json artifacts")
    s_run.add_argument("--profile", action="store_true",
                       help="wrap each scenario in cProfile and write its top-25 "
                            "cumulative hotspots to PROFILE_<scenario>.txt next "
                            "to the artifacts (forces serial execution; wall-clock "
                            "fields include profiler overhead)")
    s_run.add_argument("--verbose", action="store_true",
                       help="print each trial as it completes")
    s_run.add_argument("--trace", default=None, metavar="DIR",
                       help="attach a round tracer to every trial and write "
                            "one TRACE_<scenario>.jsonl per scenario into DIR "
                            "(observation-only: artifacts stay byte-identical "
                            "to an untraced run)")
    s_run.add_argument("--progress", action="store_true",
                       help="emit a plain heartbeat line to stderr per "
                            "completed trial (elapsed, rounds, current RSS); "
                            "off by default, never changes artifacts")
    s_run.add_argument("--digest", default=None, metavar="DIR",
                       help="attach a determinism-digest tracer to every "
                            "trial and write one DIGEST_<scenario>.jsonl "
                            "stream per scenario into DIR; rows and the "
                            "aggregate gain per-trial state_digest values "
                            "(observation-only: results stay byte-identical "
                            "to an undigested run; diff streams with "
                            "'repro diff')")
    s_run.set_defaults(func=cmd_suite_run)

    s_compare = suite_sub.add_parser(
        "compare", help="regression-gate a fresh run against a baseline snapshot"
    )
    s_compare.add_argument("suite", nargs="?", default=None,
                           help="suite to run fresh (default: the baseline's)")
    s_compare.add_argument("--baseline", default="BENCH_suite.json",
                           help="committed aggregate snapshot to diff against")
    s_compare.add_argument("--fresh", default=None,
                           help="already-produced fresh snapshot (skips the run)")
    s_compare.add_argument("--max-regression", type=float, default=10.0,
                           help="allowed mean regression in percent (default 10)")
    s_compare.add_argument("--timing-budget", type=float, default=None, metavar="PCT",
                           help="opt-in soft wall-clock check: warn when a scenario "
                                "is more than PCT%% slower than the committed "
                                "timing baseline (timing never fails the gate "
                                "unless --strict-timing is given)")
    s_compare.add_argument("--strict-timing", action="store_true",
                           help="escalate timing-budget violations from warnings "
                                "to gate failures")
    s_compare.add_argument("--timing-baseline", default="BENCH_suite_timing.json",
                           help="committed timing snapshot for --timing-budget")
    s_compare.add_argument("--rss-budget", type=float, default=None, metavar="PCT",
                           help="opt-in soft peak-memory check: warn when a "
                                "scenario's peak RSS is more than PCT%% above "
                                "the committed timing baseline's peak_rss_mb "
                                "(never fails the gate unless --strict-rss is "
                                "given)")
    s_compare.add_argument("--strict-rss", action="store_true",
                           help="escalate rss-budget violations from warnings "
                                "to gate failures")
    add_suite_run_options(s_compare)
    s_compare.set_defaults(func=cmd_suite_compare)

    trace = sub.add_parser(
        "trace", help="summarize TRACE_*.jsonl round traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    t_sum = trace_sub.add_parser(
        "summarize",
        help="render a trace's phase timeline (rounds, bits, wall time per phase)",
    )
    t_sum.add_argument("trace", nargs="+", help="TRACE_*.jsonl file(s)")
    t_sum.add_argument("--json", action="store_true",
                       help="emit the summaries as key-sorted JSON (one key "
                            "per trace file) instead of tables")
    t_sum.set_defaults(func=cmd_trace_summarize)

    diff = sub.add_parser(
        "diff",
        help="align two TRACE_/DIGEST_*.jsonl streams, report the first "
             "divergent (round, phase) and the per-phase rounds/messages/"
             "bits drift; --bisect re-runs the window in fine mode to name "
             "the first divergent node",
    )
    diff.add_argument("a", help="first TRACE_*.jsonl or DIGEST_*.jsonl stream")
    diff.add_argument("b", help="second TRACE_*.jsonl or DIGEST_*.jsonl stream")
    diff.add_argument("--bisect", action="store_true",
                      help="re-run both sides over a round window with "
                           "per-receiver inbox digests and name the first "
                           "node whose delivered payload bytes diverged")
    diff.add_argument("--window", type=int, default=1,
                      help="fine-mode half-window in rounds around the "
                           "divergent round (default 1)")
    diff.add_argument("--trial", type=int, default=None,
                      help="restrict the alignment to one trial index")
    diff.add_argument("--json", action="store_true",
                      help="emit the divergence, the per-phase drift (and "
                           "the bisection) as key-sorted JSON; exit 1 when "
                           "streams diverge")
    diff.set_defaults(func=cmd_diff)

    report = sub.add_parser(
        "report",
        help="render a terminal + self-contained HTML report from BENCH/TRACE "
             "artifacts, or 'trend' for the cross-run history",
    )
    report.add_argument("target",
                        help="suite name, scenario name, or the literal "
                             "'trend' (cross-run registry findings)")
    report.add_argument("--dir", default=".",
                        help="directory holding BENCH_suite.json / "
                             "TRACE_*.jsonl / RUNS.jsonl (default: .)")
    report.add_argument("--html", default=None, metavar="PATH",
                        help="HTML output path (default: "
                             "REPORT_<target>.html inside --dir)")
    report.add_argument("--runs", default=None, metavar="FILE",
                        help="run-history registry for 'trend' "
                             "(default: RUNS.jsonl inside --dir)")
    report.add_argument("--wall-budget", type=float, default=25.0, metavar="PCT",
                        help="trend: warn when a run is more than PCT%% "
                             "slower than its predecessor (default 25)")
    report.add_argument("--rss-budget", type=float, default=25.0, metavar="PCT",
                        help="trend: warn when a run peaks more than PCT%% "
                             "above its predecessor (default 25)")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        command = " ".join(filter(None, (
            args.command,
            getattr(args, "suite_command", None),
            getattr(args, "trace_command", None),
        )))
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
