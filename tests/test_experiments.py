"""Tests for the experiment orchestration subsystem (repro.experiments)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.congest import TRANSPORT_BACKENDS, Message
from repro.experiments import (
    Finding,
    GRAPH_FAMILIES,
    SOLVERS,
    ScenarioSpec,
    aggregate_suite,
    canonical_dumps,
    compare_rss,
    compare_summaries,
    compare_timing,
    derive_seed,
    gate_passes,
    get_suite,
    load_suite_summary,
    load_suite_timing,
    merge_timing,
    profile_filename,
    run_scenarios,
    run_suite,
    run_trial,
    suite_names,
    timing_summary,
    trial_seeds,
    validate_spec,
    write_suite_artifacts,
    write_trial_rows,
)
from repro.experiments.artifacts import SCHEMA, TIMING_SCHEMA
from repro.experiments.compare import HIGHER_IS_WORSE
from repro.metrics.report import aggregate_rows, mean, median, percentile, summary_stats


REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_SPECS = [
    ScenarioSpec("tiny-d1c", "gnp", "d1c", family_params={"n": 30, "p": 0.15}, trials=2),
    ScenarioSpec("tiny-johansson", "gnp", "johansson",
                 family_params={"n": 30, "p": 0.15}, trials=2),
]


class TestRegistry:
    def test_expected_suites_exist(self):
        assert suite_names() == [
            "conformance", "massive", "robustness", "scale", "smoke"
        ]

    @pytest.mark.parametrize(
        "name", ["conformance", "massive", "robustness", "scale", "smoke"])
    def test_every_suite_resolves_and_validates(self, name):
        specs = get_suite(name)
        assert specs
        for spec in specs:
            validate_spec(spec)  # raises on any registry inconsistency
            assert spec.family in GRAPH_FAMILIES
            assert spec.solver in SOLVERS

    def test_scenario_names_unique_per_suite(self):
        for name in suite_names():
            names = [spec.name for spec in get_suite(name)]
            assert len(names) == len(set(names))

    def test_committed_conformance_baseline_matches_the_registry(self):
        """A stale BENCH_conformance.json fails here before CI's cmp does."""
        baseline = load_suite_summary(REPO_ROOT / "BENCH_conformance.json")
        specs = get_suite("conformance")
        assert baseline["suite"] == "conformance"
        assert sorted(baseline["scenarios"]) == sorted(s.name for s in specs)
        for spec in specs:
            entry = baseline["scenarios"][spec.name]
            assert entry["trials"] == spec.trials >= 20, spec.name
            assert entry["valid_trials"] == entry["trials"], spec.name

    def test_committed_lemma6_points_meet_the_bound(self):
        """Lemma 6 (E7) at 25Δ spare colors: on every committed trial of each
        such point, MultiTrial colors at least the share 1 − (7/8)^x − 2ν it
        bounds each node's success by (ν of the worst node; the strictest
        trial's bound).  CI's cmp holds a fresh sweep to the same rows."""
        baseline = load_suite_summary(REPO_ROOT / "BENCH_conformance.json")
        names = [spec.name for spec in get_suite("conformance")
                 if spec.solver_params.get("extra_factor") == 25]
        assert len(names) == 2
        for name in names:
            metrics = baseline["scenarios"][name]["metrics"]
            bound = metrics["lemma6_bound"]["max"]
            assert 0 < bound <= metrics["colored"]["min"] / metrics["n"]["max"], name

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            get_suite("nope")

    def test_new_graph_families_registered(self):
        assert "random_geometric" in GRAPH_FAMILIES
        assert "ring_of_cliques" in GRAPH_FAMILIES
        graph, truth = GRAPH_FAMILIES["random_geometric"](seed=3, n=20, radius=0.3)
        assert graph.number_of_nodes() == 20 and truth is None
        graph, _ = GRAPH_FAMILIES["ring_of_cliques"](seed=0, num_cliques=3, clique_size=4)
        assert graph.number_of_nodes() == 12

    def test_scale_suite_shape(self):
        specs = get_suite("scale")
        assert {spec.solver for spec in specs} == {"d1lc", "d1c"}
        assert {spec.family for spec in specs} >= {
            "gnp_avg_degree", "power_law", "random_geometric", "ring_of_cliques"
        }
        assert all("scale" in spec.tags for spec in specs)
        assert all(spec.trials == 1 for spec in specs)
        assert any("n50k" in spec.tags for spec in specs)
        # Either backend must be a valid override for every scale scenario.
        for spec in specs:
            for backend in ("columnar", "dict"):
                validate_spec(dataclasses.replace(spec, backend=backend))

    def test_only_the_two_backends_are_registered(self):
        for backend in ("batch", "slot"):
            with pytest.raises(ValueError, match="unknown backend"):
                validate_spec(dataclasses.replace(TINY_SPECS[0], backend=backend))

    def test_validate_spec_rejects_bad_fields(self):
        good = TINY_SPECS[0]
        for bad in (
            dataclasses.replace(good, family="nope"),
            dataclasses.replace(good, solver="nope"),
            dataclasses.replace(good, backend="nope"),
            dataclasses.replace(good, mode="nope"),
            dataclasses.replace(good, trials=0),
        ):
            with pytest.raises(ValueError):
                validate_spec(bad)


class TestSeedDerivation:
    def test_derive_seed_is_stable_across_calls(self):
        assert derive_seed("a", 1, 2) == derive_seed("a", 1, 2)
        assert derive_seed("a", 1, 2) != derive_seed("a", 1, 3)

    def test_trials_get_distinct_seeds(self):
        spec = TINY_SPECS[0]
        seeds = {trial_seeds(spec, t) for t in range(8)}
        assert len(seeds) == 8

    def test_head_to_head_scenarios_share_graph_and_solver_seeds(self):
        """Pipeline vs baseline on the same family+params+seed see identical inputs."""
        d1c, johansson = TINY_SPECS
        assert trial_seeds(d1c, 0) == trial_seeds(johansson, 0)

    def test_performance_knobs_do_not_change_seeds(self):
        spec = TINY_SPECS[0]
        tweaked = dataclasses.replace(spec, backend="dict")
        assert trial_seeds(spec, 1) == trial_seeds(tweaked, 1)

    def test_family_params_change_graph_seed(self):
        spec = TINY_SPECS[0]
        other = dataclasses.replace(spec, family_params={"n": 31, "p": 0.15})
        assert trial_seeds(spec, 0)[0] != trial_seeds(other, 0)[0]


class TestRunner:
    def test_run_trial_row_schema(self):
        row = run_trial(TINY_SPECS[0], 0)
        for key in ("scenario", "trial", "n", "m", "valid", "rounds",
                    "bits_per_edge", "colors_used", "wall_s"):
            assert key in row
        assert row["valid"] is True

    def test_parallel_results_identical_to_serial(self):
        serial = run_scenarios(TINY_SPECS, workers=1, suite="tiny")
        parallel = run_scenarios(TINY_SPECS, workers=2, suite="tiny")
        assert canonical_dumps(aggregate_suite(serial)) == \
            canonical_dumps(aggregate_suite(parallel))
        # Trial rows match too, apart from the machine-state fields
        # (wall-clock and the process RSS high-water mark).
        for a, b in zip(serial.rows(), parallel.rows()):
            a, b = dict(a), dict(b)
            a.pop("wall_s"), b.pop("wall_s")
            a.pop("peak_rss_mb"), b.pop("peak_rss_mb")
            assert a == b

    def test_backend_does_not_change_aggregates(self):
        default = run_scenarios(TINY_SPECS, suite="tiny")
        oracle_specs = [dataclasses.replace(s, backend="dict") for s in TINY_SPECS]
        oracle = run_scenarios(oracle_specs, suite="tiny")
        assert aggregate_suite(default) == aggregate_suite(oracle)

    def test_run_suite_only_filter(self):
        result = run_suite("smoke", only=["gnp-d1c"], trials=1)
        assert [s.spec.name for s in result.scenarios] == ["gnp-d1c"]
        with pytest.raises(ValueError, match="no scenarios named"):
            run_suite("smoke", only=["missing-scenario"])

    def test_profile_dir_writes_hotspot_files(self, tmp_path):
        result = run_scenarios(TINY_SPECS[:1], suite="tiny", profile_dir=tmp_path)
        assert [s.spec.name for s in result.scenarios] == ["tiny-d1c"]
        profile = tmp_path / profile_filename("tiny-d1c")
        assert profile.exists()
        text = profile.read_text()
        assert "cumulative" in text  # sorted by cumulative time
        assert "solve_instance" in text or "solve_d1c" in text

    def test_aggregate_contains_no_timing(self):
        result = run_scenarios(TINY_SPECS[:1], suite="tiny")
        text = canonical_dumps(aggregate_suite(result))
        assert "wall" not in text and "backend" not in text


class TestArtifacts:
    def test_trial_rows_round_trip(self, tmp_path):
        result = run_scenarios(TINY_SPECS[:1], suite="tiny")
        path = tmp_path / "trials.jsonl"
        write_trial_rows(path, result.rows())
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded == [json.loads(json.dumps(r)) for r in result.rows()]

    def test_write_and_load_suite_artifacts(self, tmp_path):
        result = run_scenarios(TINY_SPECS, suite="tiny")
        paths = write_suite_artifacts(result, tmp_path)
        summary = load_suite_summary(paths["suite"])
        assert summary["schema"] == SCHEMA
        assert summary["suite"] == "tiny"
        assert set(summary["scenarios"]) == {"tiny-d1c", "tiny-johansson"}
        assert summary == aggregate_suite(result)
        timing = json.loads(paths["timing"].read_text())
        assert timing["schema"] == TIMING_SCHEMA
        assert set(timing["suites"]["tiny"]["scenarios"]) == set(summary["scenarios"])

    def test_timing_file_merges_across_suites(self, tmp_path):
        path = tmp_path / "timing.json"
        merge_timing(path, {"suite": "alpha", "total_wall_s": 1.0,
                            "scenarios": {"a": 1.0}})
        merge_timing(path, {"suite": "beta", "total_wall_s": 2.0,
                            "scenarios": {"b": 2.0}})
        # Re-running a suite replaces its own entry, keeps the others.
        merge_timing(path, {"suite": "alpha", "total_wall_s": 0.5,
                            "scenarios": {"a": 0.5}})
        data = load_suite_timing(path)
        assert set(data["suites"]) == {"alpha", "beta"}
        assert load_suite_timing(path, suite="alpha")["total_wall_s"] == 0.5
        with pytest.raises(ValueError, match="no timing entry"):
            load_suite_timing(path, suite="gamma")

    def test_merge_timing_overwrites_legacy_file(self, tmp_path):
        path = tmp_path / "timing.json"
        path.write_text(json.dumps({"suite": "old", "total_wall_s": 9}))
        merge_timing(path, {"suite": "alpha", "total_wall_s": 1.0,
                            "scenarios": {}})
        assert set(load_suite_timing(path)["suites"]) == {"alpha"}

    def test_load_timing_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "suites": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_suite_timing(path)

    def test_timing_summary_round_trips_through_artifacts(self, tmp_path):
        result = run_scenarios(TINY_SPECS[:1], suite="tiny")
        paths = write_suite_artifacts(result, tmp_path)
        entry = load_suite_timing(paths["timing"], suite="tiny")
        assert entry == {k: v for k, v in timing_summary(result).items()
                         if k != "suite"}

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "scenarios": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_suite_summary(path)


class TestAggregationHelpers:
    def test_mean_median_percentile(self):
        values = [4, 1, 3, 2]
        assert mean(values) == 2.5
        assert median(values) == 2.5
        assert median([3, 1, 2]) == 2
        assert percentile(values, 95) == 4
        assert percentile(values, 0) == 1

    def test_summary_stats_keys(self):
        stats = summary_stats([1, 2, 3])
        assert set(stats) == {"mean", "median", "p95", "min", "max"}

    def test_empty_rejected(self):
        for fn in (mean, median):
            with pytest.raises(ValueError):
                fn([])

    def test_aggregate_rows_skips_bools_and_strings(self):
        rows = [{"rounds": 3, "valid": True, "name": "x", "wall_s": 0.5},
                {"rounds": 5, "valid": False, "name": "y", "wall_s": 0.7}]
        stats = aggregate_rows(rows, exclude=("wall_s",))
        assert set(stats) == {"rounds"}
        assert stats["rounds"]["mean"] == 4


class TestCompare:
    def _summary(self):
        result = run_scenarios(TINY_SPECS, suite="tiny")
        return aggregate_suite(result)

    def test_identical_summaries_pass(self):
        summary = self._summary()
        findings = compare_summaries(summary, summary)
        assert findings == [] and gate_passes(findings)

    @pytest.mark.parametrize("name", HIGHER_IS_WORSE)
    def test_round_regression_fails_gate(self, name):
        # An 11% bump, just over the 10% budget, fails the gate on every
        # cost metric: rounds and the communication metrics alike.
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        metric = fresh["scenarios"]["tiny-d1c"]["metrics"][name]
        assert metric["mean"] > 0
        metric["mean"] = metric["mean"] * 1.11
        findings = compare_summaries(baseline, fresh, max_regression=0.10)
        assert not gate_passes(findings)
        assert any(f.metric == name and f.severity == "fail" for f in findings)

    @pytest.mark.parametrize("name", HIGHER_IS_WORSE)
    def test_cost_improvement_is_informational(self, name):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["metrics"][name]["mean"] *= 0.5
        findings = compare_summaries(baseline, fresh, max_regression=0.10)
        assert gate_passes(findings)
        assert [(f.severity, f.metric) for f in findings] == [("info", name)]

    @pytest.mark.parametrize("name", ["bandwidth_bits", "phase_bits_acd",
                                      "phase_messages_acd"])
    def test_untracked_metric_growth_is_informational(self, name):
        # Per-phase columns may shift between phases; total_bits and
        # total_messages carry the gate.
        assert name not in HIGHER_IS_WORSE
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["metrics"][name]["mean"] *= 2
        findings = compare_summaries(baseline, fresh, max_regression=0.10)
        assert gate_passes(findings)
        assert [(f.severity, f.metric) for f in findings] == [("info", name)]

    def test_regression_exactly_at_budget_passes(self):
        baseline = self._summary()
        baseline["scenarios"]["tiny-d1c"]["metrics"]["rounds"]["mean"] = 10.0
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["metrics"]["rounds"]["mean"] = 11.0
        findings = compare_summaries(baseline, fresh, max_regression=0.10)
        assert gate_passes(findings)
        assert [f.severity for f in findings] == ["info"]

    def test_small_drift_is_informational(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["metrics"]["rounds"]["mean"] *= 1.05
        findings = compare_summaries(baseline, fresh, max_regression=0.10)
        assert gate_passes(findings)
        assert any(f.severity == "info" for f in findings)

    def test_validity_drift_fails_gate(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["valid_trials"] -= 1
        findings = compare_summaries(baseline, fresh)
        assert not gate_passes(findings)
        assert any(f.metric == "valid_trials" for f in findings)

    def test_scenario_set_mismatch_fails_gate(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        del fresh["scenarios"]["tiny-johansson"]
        fresh["scenarios"]["brand-new"] = baseline["scenarios"]["tiny-d1c"]
        findings = compare_summaries(baseline, fresh)
        assert not gate_passes(findings)
        kinds = {(f.scenario, f.severity) for f in findings}
        assert ("tiny-johansson", "fail") in kinds
        assert ("brand-new", "fail") in kinds

    def test_metric_set_mismatch_fails_gate(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        del fresh["scenarios"]["tiny-d1c"]["metrics"]["total_bits"]
        findings = compare_summaries(baseline, fresh)
        assert not gate_passes(findings)
        assert any(f.metric == "total_bits" and "missing" in f.detail for f in findings)

    def test_non_mean_stat_drift_is_surfaced(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c"]["metrics"]["rounds"]["max"] += 1
        findings = compare_summaries(baseline, fresh)
        assert gate_passes(findings)  # the gate keys off the mean ...
        assert any(f.metric == "rounds" and "max" in f.detail for f in findings)

    def test_suite_mismatch_fails_gate(self):
        baseline = self._summary()
        fresh = json.loads(json.dumps(baseline))
        fresh["suite"] = "other"
        findings = compare_summaries(baseline, fresh)
        assert findings == [Finding("fail", "-", "suite",
                                    "suite mismatch: baseline='tiny' fresh='other'")]


class TestTimingGate:
    BASE = {"total_wall_s": 10.0, "scenarios": {"a": 4.0, "b": 6.0}}

    def test_within_budget_is_silent(self):
        fresh = {"total_wall_s": 11.0, "scenarios": {"a": 4.4, "b": 6.6}}
        findings = compare_timing(self.BASE, fresh, budget=0.25)
        assert findings == [] and gate_passes(findings)

    def test_speedup_is_never_flagged(self):
        fresh = {"total_wall_s": 2.0, "scenarios": {"a": 0.5, "b": 1.5}}
        assert compare_timing(self.BASE, fresh, budget=0.25) == []

    def test_over_budget_warns_but_passes_the_gate(self):
        fresh = {"total_wall_s": 20.0, "scenarios": {"a": 9.0, "b": 6.0}}
        findings = compare_timing(self.BASE, fresh, budget=0.25)
        assert any(f.severity == "warn" and f.scenario == "a" for f in findings)
        assert any(f.metric == "total_wall_s" for f in findings)
        assert gate_passes(findings)  # warnings are soft by design

    def test_strict_timing_fails_the_gate(self):
        fresh = {"total_wall_s": 20.0, "scenarios": {"a": 9.0, "b": 6.0}}
        findings = compare_timing(self.BASE, fresh, budget=0.25, strict=True)
        assert not gate_passes(findings)

    def test_scenario_set_differences_are_informational(self):
        fresh = {"total_wall_s": 10.0, "scenarios": {"a": 4.0, "c": 1.0}}
        findings = compare_timing(self.BASE, fresh, budget=0.25, strict=True)
        assert {f.severity for f in findings} == {"info"}
        assert gate_passes(findings)


class TestRssGate:
    BASE = {"total_wall_s": 10.0, "scenarios": {"a": 4.0, "b": 6.0},
            "peak_rss_mb": {"a": 100.0, "b": 400.0}}

    def test_within_budget_is_silent(self):
        fresh = {"peak_rss_mb": {"a": 110.0, "b": 440.0}}
        findings = compare_rss(self.BASE, fresh, budget=0.25)
        assert findings == [] and gate_passes(findings)

    def test_memory_win_is_never_flagged(self):
        fresh = {"peak_rss_mb": {"a": 10.0, "b": 40.0}}
        assert compare_rss(self.BASE, fresh, budget=0.25) == []

    def test_over_budget_warns_but_passes_the_gate(self):
        fresh = {"peak_rss_mb": {"a": 200.0, "b": 400.0}}
        findings = compare_rss(self.BASE, fresh, budget=0.25)
        assert any(f.severity == "warn" and f.scenario == "a"
                   and "memory budget" in f.detail for f in findings)
        assert gate_passes(findings)

    def test_strict_rss_fails_the_gate(self):
        fresh = {"peak_rss_mb": {"a": 200.0, "b": 400.0}}
        findings = compare_rss(self.BASE, fresh, budget=0.25, strict=True)
        assert not gate_passes(findings)

    def test_baseline_without_rss_map_is_informational(self):
        stale = {"total_wall_s": 10.0, "scenarios": {"a": 4.0}}
        findings = compare_rss(stale, {"peak_rss_mb": {"a": 1.0}},
                               budget=0.25, strict=True)
        assert [f.severity for f in findings] == ["info"]
        assert "peak_rss_mb" in findings[0].detail
        assert gate_passes(findings)

    def test_scenario_set_differences_are_informational(self):
        fresh = {"peak_rss_mb": {"a": 100.0, "c": 1.0}}
        findings = compare_rss(self.BASE, fresh, budget=0.25, strict=True)
        assert {f.severity for f in findings} == {"info"}
        assert gate_passes(findings)


class TestSpecParamValidation:
    """Typo'd param keys must fail at construction, not at run time.

    A misspelled key used to change the graph-seed derivation silently
    (every family_params key feeds canonical_params) while the builder never
    saw it — the scenario quietly ran a different workload than it named.
    """

    def test_unknown_family_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown family_params.*nn"):
            ScenarioSpec("typo", "gnp", "d1c", family_params={"nn": 30})

    def test_unknown_solver_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver_params.*tries"):
            ScenarioSpec("typo", "gnp", "d1c", solver_params={"tries": 4})

    def test_list_kinds_are_the_registered_ones(self):
        # "numeric" lists and their "extra" key were set by no suite.
        with pytest.raises(ValueError, match="unknown solver_params.*extra"):
            ScenarioSpec("typo", "gnp", "d1lc", solver_params={"extra": 2})
        spec = ScenarioSpec("numeric", "gnp", "d1lc", family_params={"n": 12, "p": 0.3},
                            solver_params={"lists": "numeric"})
        with pytest.raises(ValueError, match="unknown list kind: 'numeric'"):
            run_trial(spec, 0)

    def test_unknown_fault_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="dorp"):
            ScenarioSpec("typo", "gnp", "d1c", faults={"dorp": 0.1})

    def test_replace_revalidates(self):
        good = TINY_SPECS[0]
        with pytest.raises(ValueError, match="unknown family_params"):
            dataclasses.replace(good, family_params={"n": 30, "q": 0.5})

    def test_unknown_family_defers_to_validate_spec(self):
        # Construction cannot know an unknown family's key set; validate_spec
        # still rejects the spec itself.
        spec = ScenarioSpec("odd", "no-such-family", "d1c",
                            family_params={"whatever": 1})
        with pytest.raises(ValueError, match="unknown graph family"):
            validate_spec(spec)

    def test_every_registered_family_and_solver_has_a_key_set(self):
        from repro.experiments import FAMILY_PARAM_KEYS, SOLVER_PARAM_KEYS

        assert set(FAMILY_PARAM_KEYS) == set(GRAPH_FAMILIES)
        assert set(SOLVER_PARAM_KEYS) == set(SOLVERS)


class TestFaultedScenarios:
    FAULTED = ScenarioSpec("tiny-d1c-faulted", "gnp", "d1c",
                           family_params={"n": 30, "p": 0.15},
                           faults={"drop": 0.1}, trials=2)

    def test_faults_do_not_change_trial_seeds(self):
        clean = dataclasses.replace(self.FAULTED, faults={})
        assert trial_seeds(self.FAULTED, 0) == trial_seeds(clean, 0)

    def test_fault_rows_add_outcome_columns(self):
        row = run_trial(self.FAULTED, 0)
        for key in ("delivered_messages", "dropped_messages",
                    "corrupted_messages", "crashed_nodes"):
            assert key in row
        assert row["dropped_messages"] > 0
        clean_row = run_trial(dataclasses.replace(self.FAULTED, faults={}), 0)
        assert "dropped_messages" not in clean_row

    def test_aggregate_records_canonical_fault_plan(self):
        result = run_scenarios([self.FAULTED], suite="tiny")
        summary = aggregate_suite(result)
        entry = summary["scenarios"]["tiny-d1c-faulted"]
        assert entry["faults"] == {"drop": 0.1}
        assert "dropped_messages" in entry["metrics"]
        clean = aggregate_suite(run_scenarios(TINY_SPECS[:1], suite="tiny"))
        assert "faults" not in clean["scenarios"]["tiny-d1c"]

    def test_parallel_equals_serial_under_faults(self):
        specs = [self.FAULTED,
                 dataclasses.replace(self.FAULTED, name="tiny-corrupt",
                                     faults={"corrupt": 1e-3})]
        serial = run_scenarios(specs, workers=1, suite="tiny")
        parallel = run_scenarios(specs, workers=2, suite="tiny")
        assert canonical_dumps(aggregate_suite(serial)) == \
            canonical_dumps(aggregate_suite(parallel))

    def test_backend_override_keeps_faulted_aggregate(self):
        base = run_scenarios([self.FAULTED], suite="tiny")
        oracle = run_scenarios(
            [dataclasses.replace(self.FAULTED, backend="dict")], suite="tiny")
        assert aggregate_suite(base) == aggregate_suite(oracle)

    def test_compare_rejects_fault_plan_drift(self):
        baseline = aggregate_suite(run_scenarios([self.FAULTED], suite="tiny"))
        fresh = json.loads(json.dumps(baseline))
        fresh["scenarios"]["tiny-d1c-faulted"]["faults"] = {"drop": 0.2}
        findings = compare_summaries(baseline, fresh)
        assert not gate_passes(findings)
        assert any(f.metric == "faults" for f in findings)

    def test_robustness_suite_shape(self):
        specs = get_suite("robustness")
        assert len(specs) >= 12
        axes = {tag for spec in specs for tag in spec.tags}
        assert {"robustness", "drop", "corrupt", "crash", "throttle",
                "clean"} <= axes
        assert {spec.solver for spec in specs} == {"d1c", "d1lc"}
        assert len({spec.family for spec in specs}) >= 3
        faulted = [spec for spec in specs if spec.faults]
        assert len(faulted) == len(specs) - 1  # one clean reference scenario


class TestSeedOverride:
    def test_seed_override_recorded_in_aggregate(self):
        result = run_suite("smoke", only=["gnp-d1c"], trials=1, seed=7)
        summary = aggregate_suite(result)
        assert summary["seed_override"] == 7
        default = run_suite("smoke", only=["gnp-d1c"], trials=1)
        assert "seed_override" not in aggregate_suite(default)

    def test_seed_override_changes_sampled_workload(self):
        a = run_suite("smoke", only=["gnp-d1c"], trials=1, seed=7)
        b = run_suite("smoke", only=["gnp-d1c"], trials=1, seed=8)
        sha = lambda r: r.rows()[0]["coloring_sha"]
        assert sha(a) != sha(b)

    def test_compare_refuses_mismatched_seed_override(self):
        with_seed = aggregate_suite(
            run_suite("smoke", only=["gnp-d1c"], trials=1, seed=7))
        without = aggregate_suite(
            run_suite("smoke", only=["gnp-d1c"], trials=1))
        findings = compare_summaries(without, with_seed)
        assert not gate_passes(findings)
        assert findings[0].metric == "seed"
        # Matching overrides gate normally.
        assert compare_summaries(with_seed, with_seed) == []


class TestPeakRss:
    """Per-scenario peak RSS rides in the timing artifact, never the aggregate."""

    def test_trial_rows_carry_peak_rss(self):
        row = run_trial(TINY_SPECS[0], 0)
        assert row["peak_rss_mb"] > 0

    def test_timing_summary_reports_scenario_maximum(self):
        result = run_scenarios(TINY_SPECS, suite="tiny")
        timing = timing_summary(result)
        assert set(timing["peak_rss_mb"]) == {"tiny-d1c", "tiny-johansson"}
        for scenario in result.scenarios:
            expected = max(r["peak_rss_mb"] for r in scenario.rows)
            assert timing["peak_rss_mb"][scenario.spec.name] == expected

    def test_timing_artifact_gains_peak_rss_column(self, tmp_path):
        result = run_scenarios(TINY_SPECS, suite="tiny")
        paths = write_suite_artifacts(result, tmp_path)
        entry = load_suite_timing(paths["timing"], suite="tiny")
        assert set(entry["peak_rss_mb"]) == set(entry["scenarios"])
        assert all(v > 0 for v in entry["peak_rss_mb"].values())

    def test_aggregate_stays_free_of_machine_state(self):
        result = run_scenarios(TINY_SPECS, suite="tiny")
        text = canonical_dumps(aggregate_suite(result))
        assert "peak_rss_mb" not in text
        assert "wall_s" not in text

    def test_merge_timing_preserves_entries_without_rss(self, tmp_path):
        # Older (pre-column) entries merge untouched next to new ones.
        path = tmp_path / "timing.json"
        merge_timing(path, {"suite": "legacy", "total_wall_s": 1.0,
                            "scenarios": {"a": 1.0}})
        merge_timing(path, {"suite": "fresh", "total_wall_s": 2.0,
                            "scenarios": {"b": 2.0},
                            "peak_rss_mb": {"b": 64.0}})
        data = load_suite_timing(path)
        assert "peak_rss_mb" not in data["suites"]["legacy"]
        assert data["suites"]["fresh"]["peak_rss_mb"] == {"b": 64.0}


def run_tagged(tag, **overrides):
    """Trial 0 of every conformance point tagged ``tag``, by scenario name.

    Trial 0 takes the same seeds whatever the trial count, so these rows are
    the first of each point's 20 in the committed baseline.
    """
    specs = [dataclasses.replace(spec, trials=1, **overrides)
             for spec in get_suite("conformance") if tag in spec.tags]
    result = run_scenarios(specs, suite="conformance")
    return specs, {scenario.spec.name: scenario.rows[0] for scenario in result.scenarios}


class TestConformanceClaims:
    def test_d1lc_rounds_flat_in_n(self):
        """Theorem 1 (E9): D1LC on gnp at n = 60/120/240 is valid and within
        the per-edge budget, and quadrupling n at most 2.5x the randomized
        rounds (poly(log log n) growth is invisible at these sizes)."""
        specs, rows = run_tagged("e09")
        rows = [rows[spec.name] for spec in specs]
        assert all(row["valid"] for row in rows)
        assert all(row["max_edge_bits"] <= row["bandwidth_bits"] for row in rows)
        assert rows[-1]["randomized_rounds"] <= 2.5 * max(1, rows[0]["randomized_rounds"])

    def test_d1c_pipeline_grows_no_faster_than_johansson(self):
        """Corollary 1 (E11): from n = 60 to 480 the pipeline's randomized
        rounds grow by at most the Johansson baseline's growth plus 1."""
        specs, rows = run_tagged("e11")
        by_n = {}
        for spec in specs:
            kind = "pipeline" if "pipeline" in spec.tags else "baseline"
            row = rows[spec.name]
            by_n.setdefault(row["n"], {})[kind] = row
        pairs = [by_n[n] for n in sorted(by_n)]
        assert all(p["pipeline"]["valid"] and p["baseline"]["valid"] for p in pairs)
        pipeline_growth = (pairs[-1]["pipeline"]["randomized_rounds"]
                           / max(1, pairs[0]["pipeline"]["randomized_rounds"]))
        baseline_growth = (pairs[-1]["baseline"]["rounds"]
                           / max(1, pairs[0]["baseline"]["rounds"]))
        assert pipeline_growth <= baseline_growth + 1.0

    @pytest.mark.parametrize("backend", TRANSPORT_BACKENDS)
    def test_hashed_primitives_beat_naive_growth(self, backend):
        """Sections 4.1-4.2 (E12), at a strict log n budget: hashed
        MultiTrial rounds grow no more than the naive ones from x = 4 to 32,
        and hashed ACD bits/edge grow at most 0.5 more than naive from
        k = 16 to 48."""
        specs, rows = run_tagged("e12", backend=backend)

        def series(kind):
            return ([rows[s.name] for s in specs if kind in s.tags and "hashed" in s.tags],
                    [rows[s.name] for s in specs if kind in s.tags and "naive" in s.tags])

        hashed, naive = series("multitrial")
        assert (hashed[-1]["rounds"] - hashed[0]["rounds"]
                <= naive[-1]["rounds"] - naive[0]["rounds"])
        hashed, naive = series("acd")
        naive_bits_growth = (round(naive[-1]["bits_per_edge"])
                             / max(1, round(naive[0]["bits_per_edge"])))
        hashed_bits_growth = (round(hashed[-1]["bits_per_edge"])
                              / max(1, round(hashed[0]["bits_per_edge"])))
        assert hashed_bits_growth <= naive_bits_growth + 0.5


def test_smoke_messages_fit_their_declared_width(monkeypatch):
    """Trial 0 of every smoke scenario: no message whose content is an int
    or a 0/1 tuple needs more bits than it is charged."""
    under = []
    post_init = Message.__post_init__

    def audit(message):
        post_init(message)
        content = message.content
        if isinstance(content, int):
            need = max(1, abs(content).bit_length())
        elif isinstance(content, tuple) and all(bit in (0, 1) for bit in content):
            need = len(content)
        else:
            return
        if need > message.bits:
            under.append((message.label, content, message.bits))

    monkeypatch.setattr(Message, "__post_init__", audit)
    specs = [dataclasses.replace(spec, trials=1) for spec in get_suite("smoke")]
    result = run_scenarios(specs, suite="smoke")
    assert [len(scenario.rows) for scenario in result.scenarios] == [1] * len(specs)
    assert under == []
