"""Tests for the analytics layer (repro.obs.analytics).

Covers the communication & scaling analytics: comm-volume columns flowing
into trial rows and aggregates, the suite regression gate on those columns,
the run-history registry with trend detection, and the self-contained HTML
report renderer.  Everything here is post-hoc — the observation-only
contract is pinned separately in test_obs.py.
"""

import json
from pathlib import Path

import pytest

from repro.core import solve_d1c
from repro.experiments import aggregate_suite, canonical_dumps, run_scenarios
from repro.experiments.compare import compare_summaries, gate_passes
from repro.experiments.spec import ScenarioSpec
from repro.graphs import gnp_graph
from repro.obs.analytics import (
    RUNS_SCHEMA,
    aggregate_digest,
    append_run,
    detect_trends,
    load_runs,
    render_report,
    run_record,
    rss_series,
    suite_overview_rows,
)
from repro.obs.summary import summarize_trace, summary_as_dict


def _smoke_summary():
    specs = [
        ScenarioSpec(name="a-n40", family="gnp", solver="d1c",
                     family_params={"n": 40, "p": 0.15}, trials=1),
        ScenarioSpec(name="a-n80", family="gnp", solver="d1c",
                     family_params={"n": 80, "p": 0.08}, trials=1),
    ]
    return aggregate_suite(run_scenarios(specs, suite="mini"))


# --------------------------------------------------------------------------- #
# Comm-volume columns
# --------------------------------------------------------------------------- #

class TestCommColumns:
    def test_trial_rows_carry_comm_columns(self):
        summary = _smoke_summary()
        metrics = summary["scenarios"]["a-n40"]["metrics"]
        assert "total_messages" in metrics
        assert "bits_per_node" in metrics
        phase_cols = [k for k in metrics if k.startswith("phase_bits_")]
        assert phase_cols, "per-phase bit columns missing from aggregate"
        # Phase columns are internally consistent with the headline total.
        total = sum(metrics[k]["mean"] for k in metrics
                    if k.startswith("phase_bits_"))
        assert total == pytest.approx(metrics["total_bits"]["mean"])

    def test_result_phase_breakdowns_sum_to_totals(self):
        result = solve_d1c(gnp_graph(50, 0.1, seed=3), seed=3)
        assert sum(result.bits_by_phase.values()) == result.total_bits
        assert sum(result.messages_by_phase.values()) == result.total_messages
        assert result.summary()["total_messages"] == result.total_messages


# --------------------------------------------------------------------------- #
# Comm gate: the suite regression gate on the communication metrics
# --------------------------------------------------------------------------- #

ROOT = Path(__file__).resolve().parent.parent
#: The committed aggregates that ``suite compare`` gates CI runs against.
GATED_BASELINES = ("BENCH_suite.json", "BENCH_forensics.json",
                   "BENCH_robustness.json", "BENCH_scale_smoke.json")
COMM_METRICS = ("max_edge_bits", "bits_per_node")


def _scaled(summary, scenario, metric, factor):
    fresh = json.loads(canonical_dumps(summary))
    fresh["scenarios"][scenario]["metrics"][metric]["mean"] *= factor
    return fresh


class TestCommGate:
    def test_baseline_round_trips_and_self_compare_is_clean(self):
        summary = _smoke_summary()
        # Serialization round trip (what the committed file goes through).
        baseline = json.loads(canonical_dumps(summary))
        findings = compare_summaries(baseline, summary)
        assert findings == [] and gate_passes(findings)

    def test_regression_beyond_budget_fails(self):
        summary = _smoke_summary()
        worse = _scaled(summary, "a-n40", "max_edge_bits", 1.5)
        findings = compare_summaries(summary, worse, max_regression=0.10)
        fails = [f for f in findings if f.severity == "fail"]
        assert [(f.scenario, f.metric) for f in fails] == [("a-n40", "max_edge_bits")]
        assert not gate_passes(findings)

    def test_improvement_is_informational(self):
        summary = _smoke_summary()
        better = _scaled(summary, "a-n40", "bits_per_node", 0.5)
        findings = compare_summaries(summary, better, max_regression=0.10)
        assert gate_passes(findings)
        assert [(f.severity, f.metric) for f in findings] == [("info", "bits_per_node")]

    @pytest.mark.parametrize("metric", COMM_METRICS)
    @pytest.mark.parametrize("filename", GATED_BASELINES)
    def test_committed_baseline_gates_comm_metric(self, filename, metric):
        # An 11% bump of either comm metric in any one scenario of a
        # committed baseline fails the gate on exactly that scenario.
        baseline = json.loads((ROOT / filename).read_text())
        for scenario, entry in baseline["scenarios"].items():
            assert entry["metrics"][metric]["mean"] > 0, scenario
            findings = compare_summaries(
                baseline, _scaled(baseline, scenario, metric, 1.11))
            fails = [(f.scenario, f.metric) for f in findings if f.severity == "fail"]
            assert fails == [(scenario, metric)]

    @pytest.mark.parametrize("filename", GATED_BASELINES)
    def test_committed_baseline_tolerates_comm_drift_within_budget(self, filename):
        baseline = json.loads((ROOT / filename).read_text())
        fresh = json.loads(canonical_dumps(baseline))
        for entry in fresh["scenarios"].values():
            for metric in COMM_METRICS:
                entry["metrics"][metric]["mean"] *= 1.09
        findings = compare_summaries(baseline, fresh)
        assert gate_passes(findings)
        assert {f.metric for f in findings} == set(COMM_METRICS)


# --------------------------------------------------------------------------- #
# Run-history registry
# --------------------------------------------------------------------------- #

class TestRunHistory:
    def _record(self, summary, **kwargs):
        return run_record(summary, timestamp=1000.0, **kwargs)

    def test_record_shape_and_digest_stability(self):
        summary = _smoke_summary()
        record = self._record(summary)
        assert record["schema"] == RUNS_SCHEMA
        assert record["digest"] == aggregate_digest(summary)
        assert record["trials"] == 2 and record["valid_trials"] == 2
        assert record["env"]["python"]
        # Digest matches the committed artifact's bytes, not python repr.
        import hashlib

        expected = hashlib.sha256(canonical_dumps(summary).encode()).hexdigest()
        assert record["digest"] == expected

    def test_append_and_load_round_trip(self, tmp_path):
        summary = _smoke_summary()
        path = tmp_path / "RUNS.jsonl"
        append_run(path, self._record(summary))
        append_run(path, self._record(summary))
        path.open("a").write("not json\n")  # corrupt tail must not brick it
        runs = load_runs(path)
        assert len(runs) == 2
        assert load_runs(path, suite="mini") == runs
        assert load_runs(path, suite="other") == []
        assert load_runs(tmp_path / "missing.jsonl") == []

    def test_trend_detection(self):
        summary = _smoke_summary()
        a = self._record(summary, timing={"total_wall_s": 10.0,
                                          "peak_rss_mb": {"x": 100.0}})
        slow = self._record(summary, timing={"total_wall_s": 20.0,
                                             "peak_rss_mb": {"x": 100.0}})
        findings = detect_trends([a, slow])
        assert [f.severity for f in findings] == ["warn"]
        assert findings[0].metric == "wall_s"
        # Correctness drop on the same digest is fatal.
        bad = dict(a)
        bad["valid_trials"] = 0
        findings = detect_trends([a, bad])
        assert any(f.severity == "fail" and f.metric == "valid_trials"
                   for f in findings)
        # Digest change is informational, not a failure.
        changed = dict(a)
        changed["digest"] = "0" * 64
        assert gate_passes(detect_trends([a, changed]))


# --------------------------------------------------------------------------- #
# Trace-side analytics + HTML report
# --------------------------------------------------------------------------- #

def _traced_events():
    import itertools

    from repro.obs.tracer import RoundTracer

    # A clock that advances one second per reading: a sample every round.
    tracer = RoundTracer(clock=itertools.count().__next__)
    solve_d1c(gnp_graph(40, 0.15, seed=5), seed=5, tracer=tracer)
    tracer.close()
    return tracer.events


class TestTraceAnalytics:
    def test_rss_series_reads_samples(self):
        events = _traced_events()
        series = rss_series(events)
        assert series and all(rss > 0 for _, rss in series)

    def test_summary_as_dict_is_json_stable(self):
        events = _traced_events()
        payload = summary_as_dict(summarize_trace(events))
        # Round-trips through JSON, and two summaries of the same trace
        # serialize to the same bytes (what `trace summarize --json` pins).
        encoded = json.dumps(payload, sort_keys=True)
        again = json.dumps(summary_as_dict(summarize_trace(events)),
                           sort_keys=True)
        assert encoded == again
        assert payload["rounds"] > 0
        assert payload["phases"][0]["phase"] == "acd"


class TestHtmlReport:
    def test_report_is_self_contained_html(self):
        summary = _smoke_summary()
        events = _traced_events()
        html = render_report("unit report", summary=summary,
                             traces=[("a-n40", events)])
        assert html.startswith("<!doctype html>")
        assert "<script" not in html and "http://" not in html \
            and "https://" not in html
        assert "<svg" in html and "<table>" in html
        assert "a-n40" in html and "scenario overview" in html
        # The phase bars carry the trace's phases.
        assert "acd" in html

    def test_overview_rows_read_means(self):
        rows = suite_overview_rows(_smoke_summary())
        assert [r["scenario"] for r in rows] == ["a-n40", "a-n80"]
        assert all(r["rounds"] != "-" for r in rows)

    def test_escaping(self):
        from repro.obs.analytics import bar_chart, html_table

        html = html_table([{"<k>": "<v&>"}])
        assert "&lt;k&gt;" in html and "&lt;v&amp;&gt;" in html
        svg = bar_chart([("<phase>", 1.0)], "t")
        assert "<phase>" not in svg and "&lt;phase&gt;" in svg
