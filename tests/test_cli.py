"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_color_defaults(self):
        args = build_parser().parse_args(["color"])
        assert args.problem == "d1c"
        assert args.mode == "congest"

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "--problem", "rainbow"])


class TestCommands:
    def test_color_d1c(self, capsys):
        exit_code = main(["color", "--n", "60", "--p", "0.12", "--seed", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "coloring run" in out
        assert "True" in out

    def test_color_d1lc_with_huge_colors(self, capsys):
        exit_code = main([
            "color", "--n", "40", "--p", "0.15", "--problem", "d1lc",
            "--color-bits", "80", "--seed", "2",
        ])
        assert exit_code == 0
        assert "rounds by phase" in capsys.readouterr().out

    @pytest.mark.parametrize("bits,hashed", [(0, False), (80, False), (400, True)])
    def test_color_bits_select_the_color_encoding(self, bits, hashed, capsys):
        # The budget at n=40 is 171 bits: 80-bit colors go verbatim, 400-bit
        # colors through per-node hashing (one color-hash round).
        assert main(["color", "--n", "40", "--p", "0.15", "--problem", "d1lc",
                     "--color-bits", str(bits), "--seed", "2"]) == 0
        assert ("color-hash: 1" in capsys.readouterr().out) is hashed

    def test_color_local_mode(self, capsys):
        exit_code = main(["color", "--n", "40", "--p", "0.15", "--mode", "local", "--seed", "3"])
        assert exit_code == 0

    def test_baseline(self, capsys):
        exit_code = main(["baseline", "--n", "60", "--p", "0.1", "--seed", "4"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "johansson" in out and "pipeline" in out

    def test_acd(self, capsys):
        exit_code = main(["acd", "--cliques", "3", "--clique-size", "12", "--sparse", "8",
                          "--seed", "5"])
        assert exit_code == 0
        assert "almost-clique decomposition" in capsys.readouterr().out

    def test_triangles(self, capsys):
        exit_code = main(["triangles", "--n", "80", "--seed", "6"])
        assert exit_code == 0
        assert "triangle" in capsys.readouterr().out


class TestSuiteCommands:
    def test_suite_list_all(self, capsys):
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("conformance", "massive", "robustness", "scale", "smoke"):
            assert name in out

    def test_suite_list_one(self, capsys):
        assert main(["suite", "list", "smoke"]) == 0
        assert "gnp-d1c" in capsys.readouterr().out

    def test_suite_list_unknown(self, capsys):
        assert main(["suite", "list", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown suite: 'nope'" in err

    def test_suite_run_unknown_suite_exits_2_with_one_line(self, capsys, tmp_path):
        assert main(["suite", "run", "nosuch", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown suite: 'nosuch'" in err
        assert not any(tmp_path.iterdir())

    def test_suite_compare_unknown_suite_exits_2(self, capsys):
        baseline = Path(__file__).resolve().parent.parent / "BENCH_suite.json"
        assert main(["suite", "compare", "nosuch",
                     "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown suite: 'nosuch'" in err

    def test_suite_run_smoke_and_compare(self, capsys, tmp_path):
        exit_code = main(["suite", "run", "smoke", "--workers", "1",
                          "--trials", "1", "--out", str(tmp_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "suite 'smoke'" in out
        suite_path = tmp_path / "BENCH_suite.json"
        assert suite_path.exists()
        assert (tmp_path / "BENCH_suite_trials.jsonl").exists()
        assert (tmp_path / "BENCH_suite_timing.json").exists()
        # A snapshot compares clean against itself and gates the exit code.
        assert main(["suite", "compare", "--baseline", str(suite_path),
                     "--fresh", str(suite_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_suite_compare_fails_on_drift(self, capsys, tmp_path):
        import json

        assert main(["suite", "run", "smoke", "--workers", "1", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        baseline = tmp_path / "BENCH_suite.json"
        drifted = json.loads(baseline.read_text())
        scenario = next(iter(drifted["scenarios"]))
        drifted["scenarios"][scenario]["valid_trials"] = 0
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(drifted))
        assert main(["suite", "compare", "--baseline", str(baseline),
                     "--fresh", str(fresh)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_suite_run_dict_backend_matches_default_aggregate(self, capsys, tmp_path):
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--out", str(tmp_path / "a")]) == 0
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--backend", "dict",
                     "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "BENCH_suite.json").read_bytes()
        b = (tmp_path / "b" / "BENCH_suite.json").read_bytes()
        assert a == b  # the backend knob never reaches the aggregate

    def test_suite_run_only_unknown_scenario(self, capsys, tmp_path):
        assert main(["suite", "run", "scale", "--only", "a,b",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no scenarios named: ['a,b']" in err
        assert not any(tmp_path.iterdir())

    def test_suite_run_profile_writes_hotspots(self, capsys, tmp_path):
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--profile",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PROFILE_gnp-d1c.txt" in out
        profile = tmp_path / "PROFILE_gnp-d1c.txt"
        assert profile.exists() and "cumulative" in profile.read_text()
        # Profiler-inflated wall-clock must never refresh the timing artifact.
        assert not (tmp_path / "BENCH_suite_timing.json").exists()

    def test_suite_compare_skips_timing_without_baseline_file(self, capsys, tmp_path):
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        suite_path = tmp_path / "BENCH_suite.json"
        capsys.readouterr()
        assert main(["suite", "compare", "--baseline", str(suite_path),
                     "--fresh", str(suite_path), "--timing-budget", "25",
                     "--timing-baseline", str(tmp_path / "missing.json")]) == 0
        out = capsys.readouterr().out
        assert "timing/RSS checks skipped" in out and "PASS" in out

    @pytest.mark.parametrize("budget", ["--timing-budget", "--rss-budget"],
                             ids=["timing-budget", "rss-budget"])
    @pytest.mark.parametrize("timing", ["not-json", "no-suite-entry",
                                        "json-array", "suites-array"])
    def test_suite_compare_skips_timing_on_a_bad_fresh_timing_file(
            self, timing, budget, capsys, tmp_path):
        import json

        assert main(["suite", "run", "smoke", "--only", "gnp-d1c",
                     "--trials", "1", "--out", str(tmp_path)]) == 0
        suite_path = tmp_path / "BENCH_suite.json"
        timing_path = tmp_path / "BENCH_suite_timing.json"
        data = json.loads(timing_path.read_text())
        if timing == "not-json":
            timing_path.write_text("{bad")
        elif timing == "json-array":
            timing_path.write_text("[1]")
        else:
            data["suites"] = ({"scale": data["suites"]["smoke"]}
                              if timing == "no-suite-entry" else [1])
            timing_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["suite", "compare", "--baseline", str(suite_path),
                     "--fresh", str(suite_path), budget, "25"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("timing/RSS checks skipped") == 1
        assert "PASS" in captured.out and "Traceback" not in captured.err

    def test_suite_compare_timing_budget_warns_but_passes(self, capsys, tmp_path):
        import json

        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        suite_path = tmp_path / "BENCH_suite.json"
        timing_path = tmp_path / "BENCH_suite_timing.json"
        # Make the committed baseline impossibly fast, so the fresh run is
        # far over budget: default (soft) mode warns, strict mode fails.
        fast = json.loads(timing_path.read_text())
        for name in fast["suites"]["smoke"]["scenarios"]:
            fast["suites"]["smoke"]["scenarios"][name] = 1e-9
        fast["suites"]["smoke"]["total_wall_s"] = 1e-9
        fast_path = tmp_path / "fast_timing.json"
        fast_path.write_text(json.dumps(fast))
        capsys.readouterr()
        assert main(["suite", "compare", "--baseline", str(suite_path),
                     "--fresh", str(suite_path),
                     "--timing-budget", "25",
                     "--timing-baseline", str(fast_path)]) == 0
        out = capsys.readouterr().out
        assert "warn" in out and "PASS" in out
        assert main(["suite", "compare", "--baseline", str(suite_path),
                     "--fresh", str(suite_path),
                     "--timing-budget", "25", "--strict-timing",
                     "--timing-baseline", str(fast_path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFaultsCli:
    def test_faults_option_runs_and_records_plan(self, capsys, tmp_path):
        import json

        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--faults", "drop=0.02,corrupt=1e-4",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "BENCH_suite.json").read_text())
        entry = summary["scenarios"]["gnp-d1c"]
        assert entry["faults"] == {"drop": 0.02, "corrupt": 1e-4}
        assert "dropped_messages" in entry["metrics"]

    def test_invalid_under_faults_does_not_fail_the_run(self, capsys, tmp_path):
        # drop=1 makes any coloring invalid, but that is the measurement,
        # not a failure — the exit code stays 0 and the output says why.
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--faults", "drop=1.0",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "invalid under faults" in out

    def test_bad_faults_spec_rejected(self, capsys, tmp_path):
        for spec, message in (("dorp=0.1", "dorp"), ("drop", "key=value"),
                              ("drop=lots", "not a number")):
            assert main(["suite", "run", "smoke", "--only", "gnp-d1c",
                         "--faults", spec, "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_robustness_suite_listed(self, capsys):
        assert main(["suite", "list", "robustness"]) == 0
        out = capsys.readouterr().out
        assert "gnp-d1c-drop10" in out and "drop=0.1" in out

    def test_seed_override_round_trips_and_compare_refuses(self, capsys, tmp_path):
        import json

        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        summary_path = tmp_path / "BENCH_suite.json"
        assert json.loads(summary_path.read_text())["seed_override"] == 7
        # Same seed gates clean against itself ...
        assert main(["suite", "compare", "--baseline", str(summary_path),
                     "--fresh", str(summary_path)]) == 0
        # ... but a default-seed fresh snapshot is refused.
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c",
                     "--out", str(tmp_path / "clean")]) == 0
        assert main(["suite", "compare", "--baseline", str(summary_path),
                     "--fresh", str(tmp_path / "clean" / "BENCH_suite.json")]) == 1
        assert "seed override mismatch" in capsys.readouterr().out


#: Bad invocations, by name.  ``{tmp}`` is a scratch directory holding
#: ``bad.json`` and ``TRACE_bad.jsonl`` (neither is JSON), ``array.json`` and
#: ``array/BENCH_suite.json`` (JSON arrays, not objects); ``{bench}`` is the
#: committed smoke aggregate.
USER_ERRORS = {
    "color-n-zero": ["color", "--n", "0"],
    "color-p-above-one": ["color", "--p", "2"],
    "color-bits-negative": ["color", "--color-bits", "-5"],
    "color-bits-without-d1lc": ["color", "--problem", "delta+1",
                                "--color-bits", "400"],
    "color-bits-with-d1c": ["color", "--color-bits", "60"],
    "baseline-n-zero": ["baseline", "--n", "0"],
    "suite-run-zero-trials": ["suite", "run", "smoke", "--trials", "0",
                              "--out", "{tmp}/out"],
    "compare-missing-baseline": ["suite", "compare",
                                 "--baseline", "{tmp}/missing.json"],
    "compare-non-json-baseline": ["suite", "compare",
                                  "--baseline", "{tmp}/bad.json"],
    "compare-missing-fresh": ["suite", "compare", "--baseline", "{bench}",
                              "--fresh", "{tmp}/missing.json"],
    "compare-non-json-fresh": ["suite", "compare", "--baseline", "{bench}",
                               "--fresh", "{tmp}/bad.json"],
    "compare-array-baseline": ["suite", "compare",
                               "--baseline", "{tmp}/array.json"],
    "compare-array-fresh": ["suite", "compare", "--baseline", "{bench}",
                            "--fresh", "{tmp}/array.json"],
    "compare-negative-max-regression": ["suite", "compare", "--baseline", "{bench}",
                                        "--fresh", "{bench}", "--max-regression", "-5"],
    "compare-negative-timing-budget": ["suite", "compare", "--baseline", "{bench}",
                                       "--fresh", "{bench}", "--timing-budget", "-5"],
    "compare-negative-rss-budget": ["suite", "compare", "--baseline", "{bench}",
                                    "--fresh", "{bench}", "--rss-budget", "-5"],
    "report-negative-wall-budget": ["report", "trend", "--dir", "{tmp}",
                                    "--wall-budget", "-50"],
    "report-negative-rss-budget": ["report", "trend", "--dir", "{tmp}",
                                   "--rss-budget", "-5"],
    "compare-zero-workers": ["suite", "compare", "--baseline", "{bench}",
                             "--fresh", "{bench}", "--workers", "0"],
    "suite-run-zero-workers": ["suite", "run", "smoke", "--workers", "0",
                               "--out", "{tmp}/out"],
    "suite-run-negative-workers": ["suite", "run", "smoke", "--workers", "-3",
                                   "--out", "{tmp}/out"],
    "trace-summarize-missing": ["trace", "summarize", "{tmp}/missing.jsonl"],
    "trace-summarize-empty": ["trace", "summarize", "{tmp}/empty.jsonl"],
    "trace-summarize-headerless": ["trace", "summarize",
                                   "{tmp}/headerless.jsonl"],
    "diff-missing": ["diff", "{tmp}/missing.jsonl", "{tmp}/missing.jsonl"],
    "diff-empty": ["diff", "{tmp}/empty.jsonl", "{tmp}/empty.jsonl"],
    "diff-one-side-empty": ["diff", "{tmp}/run.jsonl", "{tmp}/empty.jsonl"],
    "diff-headerless": ["diff", "{tmp}/headerless.jsonl",
                        "{tmp}/headerless.jsonl"],
    "diff-trial-absent": ["diff", "{tmp}/run.jsonl", "{tmp}/run.jsonl",
                          "--trial", "5"],
    "diff-trial-negative": ["diff", "{tmp}/run.jsonl", "{tmp}/run.jsonl",
                            "--trial", "-1"],
    "diff-window-negative": ["diff", "{tmp}/run.jsonl", "{tmp}/run.jsonl",
                             "--bisect", "--window", "-1"],
    "acd-sparse-negative": ["acd", "--sparse", "-1"],
    "triangles-n-zero": ["triangles", "--n", "0"],
    "triangles-n-negative": ["triangles", "--n", "-5"],
    "triangles-eps-zero": ["triangles", "--eps", "0"],
    "triangles-eps-above-one": ["triangles", "--eps", "1.5"],
    "report-non-json-trace": ["report", "bad", "--dir", "{tmp}"],
    "report-nothing-found": ["report", "nope", "--dir", "{tmp}"],
    "report-empty-trace": ["report", "empty", "--dir", "{tmp}"],
    "report-array-aggregate": ["report", "smoke", "--dir", "{tmp}/array"],
    "faults-not-a-number": ["suite", "run", "smoke", "--faults", "drop=abc",
                            "--out", "{tmp}/out"],
    "faults-unknown-key": ["suite", "run", "smoke", "--faults", "bogus=1",
                           "--out", "{tmp}/out"],
}


def write_header_stream(path, trials=(0,)):
    """A minimal run-event stream: one header event per trial index."""
    import json

    from repro.obs import RUN_SCHEMA

    path.write_text("".join(
        json.dumps({"type": "header", "schema": RUN_SCHEMA, "trial": trial})
        + "\n" for trial in trials))


class TestUserErrors:
    @pytest.mark.parametrize("argv", list(USER_ERRORS.values()),
                             ids=list(USER_ERRORS))
    def test_exits_2_with_one_stderr_line(self, argv, capsys, tmp_path):
        (tmp_path / "bad.json").write_text("not json\n")
        (tmp_path / "array.json").write_text("[1]\n")
        (tmp_path / "array").mkdir()
        (tmp_path / "array" / "BENCH_suite.json").write_text("[1]\n")
        (tmp_path / "TRACE_bad.jsonl").write_text("not json\n")
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "TRACE_empty.jsonl").write_text("")
        (tmp_path / "headerless.jsonl").write_text('{"type": "round", "round": 1}\n')
        write_header_stream(tmp_path / "run.jsonl")
        bench = Path(__file__).resolve().parent.parent / "BENCH_suite.json"
        argv = [arg.format(tmp=tmp_path, bench=bench) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schema", ["repro-digest/1", "repro-trace/1"])
    def test_old_stream_schema_names_the_expected_one(self, schema, capsys,
                                                      tmp_path):
        import json

        from repro.obs import RUN_SCHEMA

        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps({"type": "header", "schema": schema}) + "\n")
        assert main(["diff", str(old), str(old)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert schema in err and RUN_SCHEMA in err

    def test_absent_trial_names_the_trials_each_stream_has(self, capsys,
                                                           tmp_path):
        write_header_stream(tmp_path / "a.jsonl")
        write_header_stream(tmp_path / "b.jsonl", trials=(0, 1))
        assert main(["diff", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl"), "--trial", "1"]) == 2
        err = capsys.readouterr().err
        assert "--trial 1" in err
        assert "a.jsonl has trials 0;" in err and "b.jsonl has trials 0, 1" in err

    def test_removed_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--backend", "slot"])
        assert exc.value.code == 2
        assert "invalid choice: 'slot'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--comm-budget", "--comm-baseline"])
    def test_removed_comm_gate_option_is_a_usage_error(self, option, capsys):
        # The comm metrics are gated by suite compare's own regression budget.
        with pytest.raises(SystemExit) as exc:
            main(["suite", "compare", "--baseline", "BENCH_suite.json",
                  f"{option}=10"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}=10" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["color"], ["baseline"], ["acd"], ["triangles"],
        ["suite", "run", "smoke"], ["suite", "compare", "--baseline", "b.json"],
    ], ids=" ".join)
    def test_no_command_takes_a_shard_count(self, argv):
        # An unknown option is an argparse usage error (exit 2).
        assert "shards" not in vars(build_parser().parse_args(argv))


class TestTraceCommands:
    def _run_traced(self, tmp_path, only=("gnp-d1c",), out="run"):
        argv = ["suite", "run", "smoke", "--trials", "1",
                "--out", str(tmp_path / out), "--trace", str(tmp_path / out)]
        for name in only:
            argv.extend(["--only", name])
        assert main(argv) == 0
        return tmp_path / out

    def test_suite_run_trace_writes_artifacts(self, capsys, tmp_path):
        out_dir = self._run_traced(tmp_path)
        out = capsys.readouterr().out
        assert "traces:" in out
        trace_path = out_dir / "TRACE_gnp-d1c.jsonl"
        assert trace_path.exists()
        import json

        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        assert events[0]["type"] == "header"
        assert any(e["type"] == "round" for e in events)

    def test_suite_run_trace_keeps_aggregate_bytes(self, capsys, tmp_path):
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--out", str(tmp_path / "plain")]) == 0
        self._run_traced(tmp_path, out="traced")
        plain = (tmp_path / "plain" / "BENCH_suite.json").read_bytes()
        traced = (tmp_path / "traced" / "BENCH_suite.json").read_bytes()
        assert plain == traced  # tracing never reaches the aggregate

    def test_suite_run_progress_heartbeats_on_stderr(self, capsys, tmp_path):
        assert main(["suite", "run", "smoke", "--trials", "1",
                     "--only", "gnp-d1c", "--progress",
                     "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "[suite] gnp-d1c trial 0:" in captured.err
        assert "rss=" in captured.err
        assert "[suite]" not in captured.out  # heartbeats never touch stdout

    def test_trace_summarize_renders_phase_timeline(self, capsys, tmp_path):
        out_dir = self._run_traced(tmp_path, only=("powerlaw-d1lc",))
        capsys.readouterr()
        assert main(["trace", "summarize",
                     str(out_dir / "TRACE_powerlaw-d1lc.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "phase timeline" in out
        assert "acd" in out
        assert "TOTAL" in out

    def test_diff_trace_files_clean_and_drifted(self, capsys, tmp_path):
        a = self._run_traced(tmp_path, out="a")
        b = self._run_traced(tmp_path, out="b")
        trace_a = a / "TRACE_gnp-d1c.jsonl"
        trace_b = b / "TRACE_gnp-d1c.jsonl"
        capsys.readouterr()
        assert main(["diff", str(trace_a), str(trace_b)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out and "deterministic drift" not in out
        # Perturb one round's bits: the deterministic gate must trip.
        import json

        lines = trace_b.read_text().splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["type"] == "round" and event["round"] == 3:
                event["bits"] += 1
                lines[i] = json.dumps(event, sort_keys=True)
                break
        trace_b.write_text("\n".join(lines) + "\n")
        assert main(["diff", str(trace_a), str(trace_b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at round 3" in out
        assert "deterministic drift" in out and "bits" in out

    def test_trace_parser_requires_subcommand(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestAnalyticsCli:
    """The PR's analytics surface: --json trace output, the comm gate,
    the run-history registry, and `repro report`."""

    def _run_smoke(self, tmp_path, trace=False, only=("gnp-d1c",)):
        out = tmp_path / "run"
        argv = ["suite", "run", "smoke", "--trials", "1", "--out", str(out)]
        for name in only:
            argv.extend(["--only", name])
        if trace:
            argv.extend(["--trace", str(out)])
        assert main(argv) == 0
        return out

    def test_suite_run_appends_run_history(self, capsys, tmp_path):
        import json

        out = self._run_smoke(tmp_path)
        runs_path = out / "RUNS.jsonl"
        assert runs_path.exists()
        record = json.loads(runs_path.read_text().splitlines()[0])
        assert record["schema"] == "repro-runs/1"
        assert record["suite"] == "smoke"
        assert len(record["digest"]) == 64
        assert record["env"]["python"]
        # A second run appends, never truncates.
        self._run_smoke(tmp_path)
        assert len(runs_path.read_text().splitlines()) == 2

    def test_trace_summarize_json_is_sorted_and_stable(self, capsys, tmp_path):
        import json

        out = self._run_smoke(tmp_path, trace=True)
        trace = out / "TRACE_gnp-d1c.jsonl"
        capsys.readouterr()
        assert main(["trace", "summarize", "--json", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["TRACE_gnp-d1c.jsonl"]
        summary = payload["TRACE_gnp-d1c.jsonl"]
        assert summary["rounds"] > 0
        assert json.dumps(summary, sort_keys=True) == json.dumps(summary)

    def test_diff_json_on_trace_files(self, capsys, tmp_path):
        import json

        out = self._run_smoke(tmp_path, trace=True)
        trace = out / "TRACE_gnp-d1c.jsonl"
        capsys.readouterr()
        assert main(["diff", "--json", str(trace), str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True and payload["drift"] == []
        assert payload["divergence"] is None
        # Drifted pair: exit 1 and the drift rows name the column.
        drifted = tmp_path / "drifted.jsonl"
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["type"] == "round":
                event["bits"] += 8
                lines[i] = json.dumps(event, sort_keys=True)
                break
        drifted.write_text("\n".join(lines) + "\n")
        assert main(["diff", "--json", str(trace), str(drifted)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert any(d["column"] == "bits" for d in payload["drift"])
        assert payload["divergence"]["component"] == "counters"

    def test_report_suite_renders_and_writes_html(self, capsys, tmp_path):
        out = self._run_smoke(tmp_path, trace=True)
        capsys.readouterr()
        assert main(["report", "smoke", "--dir", str(out)]) == 0
        out_text = capsys.readouterr().out
        assert "report: smoke" in out_text
        assert "phase timeline: gnp-d1c" in out_text
        html_path = out / "REPORT_smoke.html"
        assert html_path.exists()
        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "gnp-d1c" in html

    def test_report_scenario_narrows_to_one(self, capsys, tmp_path):
        out = self._run_smoke(tmp_path, trace=True,
                              only=("gnp-d1c", "powerlaw-d1lc"))
        capsys.readouterr()
        assert main(["report", "gnp-d1c", "--dir", str(out),
                     "--html", str(tmp_path / "one.html")]) == 0
        out_text = capsys.readouterr().out
        assert "gnp-d1c" in out_text
        assert "phase timeline: powerlaw-d1lc" not in out_text
        assert (tmp_path / "one.html").exists()

    @pytest.mark.parametrize("content", ["{bad", '{"schema": "other"}'],
                             ids=["not-json", "other-schema"])
    def test_report_on_a_bad_suite_aggregate_exits_2(self, content, capsys,
                                                     tmp_path):
        (tmp_path / "BENCH_suite.json").write_text(content)
        assert main(["report", "smoke", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "BENCH_suite.json" in err

    def test_report_trend_table_and_gate(self, capsys, tmp_path):
        out = self._run_smoke(tmp_path)
        self._run_smoke(tmp_path)
        capsys.readouterr()
        assert main(["report", "trend", "--dir", str(out)]) == 0
        out_text = capsys.readouterr().out
        assert "run history (2 runs)" in out_text
        assert "smoke" in out_text

    def test_report_trend_empty_history(self, capsys, tmp_path):
        assert main(["report", "trend", "--dir", str(tmp_path)]) == 0
        assert "no run history" in capsys.readouterr().out
