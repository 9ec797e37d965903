"""Tests for the observability subsystem (repro.obs).

The headline contract here is **observation-only tracing**: a traced run is
byte-identical to an untraced one on every transport backend, fault-free
and under fault plans.  The rest covers the run-event stream, the
TRACE/DIGEST JSONL artifacts, phase-timeline summaries, resource sampling,
and the suite runner / CLI integration.
"""

import io
import json
import time

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import solve_d1c
from repro.experiments import (
    aggregate_suite,
    canonical_dumps,
    get_suite,
    run_scenarios,
)
from repro.experiments.runner import run_instrumented_trial
from repro.obs import (
    NULL_TRACER,
    RUN_SCHEMA,
    NullTracer,
    ResourceSampler,
    RoundTracer,
    compare_traces,
    cpu_seconds,
    current_rss_mb,
    deterministic_events,
    digest_filename,
    load_events,
    peak_rss_mb,
    render_timeline,
    summarize_trace,
    trace_filename,
    write_events,
)
from repro.obs.artifacts import MACHINE_FIELDS
from repro.obs.tracer import SAMPLE_EVERY_S
from round_driver import run_rounds


def ping(net):
    """Every node pings its neighbours for three rounds, then halts."""
    return run_rounds(net, lambda v, r, inbox, rng: (
        {u: 1 for u in net.neighbors(v)}, r >= 2), label="ping:step")


def ledger_fingerprint(network):
    ledger = network.ledger
    return (ledger.rounds, ledger.total_messages, ledger.total_bits,
            ledger.max_edge_bits, ledger.rounds_by_label(),
            ledger.bits_by_label(), ledger.messages_by_label())


# --------------------------------------------------------------------------- #
# Tracer event stream
# --------------------------------------------------------------------------- #

class TestRoundTracer:
    def test_event_stream_shape(self):
        tracer = RoundTracer(meta={"scenario": "unit"})
        net = Network(nx.cycle_graph(6), tracer=tracer)
        ping(net)
        tracer.close()
        kinds = [e["type"] for e in tracer.events]
        assert kinds[0] == "header"
        assert kinds[-1] == "end"
        rounds = [e for e in tracer.events if e["type"] == "round"]
        assert len(rounds) == 3
        header = tracer.events[0]
        assert header["schema"] == RUN_SCHEMA
        assert header["n"] == 6
        assert header["scenario"] == "unit"
        first = rounds[0]
        assert first["round"] == 1
        assert first["label"] == "ping:step"
        assert first["phase"] == "ping"
        assert first["messages"] == 12
        assert first["active"] == 6 and first["owned"] == 6
        assert first["wall_s"] >= 0
        end = tracer.events[-1]
        assert end["rounds"] == 3
        assert end["total_bits"] == net.ledger.total_bits
        assert end["rss_mb"] > 0

    def test_round_events_sum_to_ledger(self):
        tracer = RoundTracer()
        net = Network(nx.gnm_random_graph(20, 40, seed=3), tracer=tracer)
        solve_d1c(net.graph, seed=5)  # unrelated run: tracer only sees `net`
        ping(net)
        tracer.close()
        rounds = [e for e in tracer.events if e["type"] == "round"]
        assert sum(e["bits"] for e in rounds) == net.ledger.total_bits
        assert sum(e["messages"] for e in rounds) == net.ledger.total_messages
        assert len(rounds) == net.ledger.rounds

    def test_fault_deltas_in_round_events(self):
        tracer = RoundTracer()
        net = Network(nx.complete_graph(8), faults={"drop": 0.5},
                      fault_seed=7, tracer=tracer)
        ping(net)
        tracer.close()
        assert "faults" in tracer.events[0]  # header carries the plan
        rounds = [e for e in tracer.events if e["type"] == "round"]
        dropped = sum(e.get("faults", {}).get("dropped_messages", 0)
                      for e in rounds)
        assert dropped == net.fault_stats["dropped_messages"]
        assert dropped > 0
        assert tracer.events[-1]["faults"] == net.fault_stats

    def test_close_is_idempotent_and_detaches(self):
        tracer = RoundTracer()
        net = Network(nx.path_graph(4), tracer=tracer)
        net.exchange({(0, 1): 1}, label="a")
        tracer.close()
        tracer.close()
        assert net.ledger.observer is None
        events_after_close = len(tracer.events)
        net.exchange({(1, 2): 1}, label="b")  # no longer observed
        assert len(tracer.events) == events_after_close

    def test_one_tracer_per_run(self):
        tracer = RoundTracer()
        net = Network(nx.path_graph(3), tracer=tracer)
        # Re-attaching to the same network is an idempotent no-op...
        tracer.attach(net)
        # ...but a second network, or a closed tracer, is a bug.
        with pytest.raises(RuntimeError):
            Network(nx.path_graph(3), tracer=tracer)
        tracer.close()
        with pytest.raises(RuntimeError):
            tracer.attach(Network(nx.path_graph(3)))

    def test_second_tracer_on_an_occupied_ledger_raises(self):
        # One tracer carries both the trace and the digest, so a ledger has
        # at most one round observer.
        first = RoundTracer()
        net = Network(nx.path_graph(3), tracer=first)
        with pytest.raises(RuntimeError, match="already has a round observer"):
            RoundTracer(digest=True).attach(net)
        net.exchange({(0, 1): 1}, label="a")
        first.close()
        assert len([e for e in first.events if e["type"] == "round"]) == 1
        assert net.ledger.observer is None

    def test_periodic_samples_follow_the_injected_clock(self):
        now = [0.0]
        tracer = RoundTracer(clock=lambda: now[0])
        net = Network(nx.path_graph(4), tracer=tracer)
        for _ in range(6):
            now[0] += SAMPLE_EVERY_S / 2
            net.exchange({(0, 1): 1}, label="a")
        tracer.close()
        samples = [e for e in tracer.events if e["type"] == "sample"]
        # One sample per elapsed SAMPLE_EVERY_S, after the round it follows.
        assert [s["round"] for s in samples] == [2, 4, 6]
        assert [s["wall_s"] for s in samples] == [1.0, 2.0, 3.0]
        for sample in samples:
            assert sample["rss_mb"] > 0
            assert sample["cpu_s"] >= 0

    def test_trace_only_tracer_records_no_digest(self):
        tracer = RoundTracer()
        assert not tracer.wants_payloads
        net = Network(nx.cycle_graph(6), tracer=tracer)
        ping(net)
        tracer.close()
        for event in tracer.events:
            assert not {"chain", "payload", "state"} & set(event)


# --------------------------------------------------------------------------- #
# The observation-only contract: traced == untraced, byte for byte
# --------------------------------------------------------------------------- #

class TestObservationOnly:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_traced_solve_identical(self, backend):
        graph = nx.gnm_random_graph(30, 80, seed=11)
        plain = solve_d1c(graph, seed=4, backend=backend)
        tracer = RoundTracer()
        traced = solve_d1c(graph, seed=4, backend=backend, tracer=tracer)
        tracer.close()
        assert traced.coloring == plain.coloring
        assert (traced.rounds, traced.total_bits, traced.max_edge_bits) == (
            plain.rounds, plain.total_bits, plain.max_edge_bits)
        assert traced.rounds_by_phase == plain.rounds_by_phase

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_traced_solve_identical_under_faults(self, backend):
        graph = nx.gnm_random_graph(30, 80, seed=11)
        kwargs = dict(seed=4, backend=backend,
                      faults={"drop": 0.05, "corrupt": 1e-3}, fault_seed=9)
        plain = solve_d1c(graph, **kwargs)
        tracer = RoundTracer()
        traced = solve_d1c(graph, tracer=tracer, **kwargs)
        tracer.close()
        assert traced.coloring == plain.coloring
        assert traced.fault_stats == plain.fault_stats
        assert (traced.rounds, traced.total_bits) == (
            plain.rounds, plain.total_bits)

    def test_traced_node_rounds_identical(self):
        def run(tracer):
            net = Network(nx.cycle_graph(10), tracer=tracer)
            return ping(net), ledger_fingerprint(net)

        plain = run(None)
        tracer = RoundTracer()
        traced = run(tracer)
        tracer.close()
        assert traced == plain

    def test_null_tracer_installs_nothing(self):
        net = Network(nx.path_graph(4))
        assert net.tracer is NULL_TRACER
        assert net.tracer.enabled is False
        assert net.ledger.observer is None
        # The protocol hooks are callable no-ops on the shared singleton.
        NULL_TRACER.note_nodes(1, 2)
        NULL_TRACER.close()
        assert isinstance(NULL_TRACER, NullTracer)

    def test_untraced_smoke_scenario_within_timing_budget(self):
        # The NullTracer overhead guard: an untraced trial must not have
        # grown a per-round observation cost.  Structural checks above pin
        # the mechanism (no observer installed); this is a generous
        # wall-clock backstop, not a microbenchmark.
        spec = next(s for s in get_suite("smoke") if s.name == "gnp-d1c")
        start = time.perf_counter()
        run_scenarios([spec], suite="smoke")
        assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------- #
# Run-event artifacts: filenames, JSONL round-trip, schema checks, and the
# machine-field-free DIGEST view
# --------------------------------------------------------------------------- #

class TestRunArtifacts:
    def test_filenames_sanitize(self):
        assert trace_filename("gnp-d1c") == "TRACE_gnp-d1c.jsonl"
        assert trace_filename("weird name/x:y") == "TRACE_weird_name_x_y.jsonl"
        assert digest_filename("gnp-d1c") == "DIGEST_gnp-d1c.jsonl"
        assert digest_filename("weird name/x:y") == "DIGEST_weird_name_x_y.jsonl"

    def test_write_load_round_trip(self, tmp_path):
        tracer = RoundTracer(meta={"scenario": "rt"})
        net = Network(nx.path_graph(4), tracer=tracer)
        net.exchange({(0, 1): 1}, label="a:one")
        tracer.close()
        path = write_events(tmp_path / trace_filename("rt"), tracer.events)
        loaded = load_events(path)
        assert loaded == [json.loads(json.dumps(e, sort_keys=True, default=str))
                          for e in tracer.events]
        # one JSON object per line, keys sorted
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.events)
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_digest_view_drops_machine_fields_only(self, tmp_path):
        now = [0.0]

        def clock():
            now[0] += SAMPLE_EVERY_S  # a resource sample after every round
            return now[0]

        tracer = RoundTracer(digest=True, clock=clock)
        net = Network(nx.cycle_graph(6), tracer=tracer)
        ping(net)
        tracer.close()
        assert any(e["type"] == "sample" for e in tracer.events)
        view = deterministic_events(tracer.events)
        assert [e["type"] for e in view] == [
            e["type"] for e in tracer.events if e["type"] != "sample"]
        for full, kept in zip(
                (e for e in tracer.events if e["type"] != "sample"), view):
            assert kept == {k: v for k, v in full.items()
                            if k not in MACHINE_FIELDS}
        assert "backend" in tracer.events[0] and "backend" not in view[0]
        assert view[-1]["chain"] == tracer.events[-1]["chain"]
        path = write_events(tmp_path / digest_filename("rt"), view)
        assert load_events(path)[0]["schema"] == RUN_SCHEMA

    def test_load_rejects_non_run_jsonl(self, tmp_path):
        path = tmp_path / "TRACE_bogus.jsonl"
        path.write_text('{"type": "round", "round": 1}\n')
        with pytest.raises(ValueError, match="no header"):
            load_events(path)
        path.write_text('[1, 2]\n')
        with pytest.raises(ValueError, match="not a JSON object"):
            load_events(path)

    @pytest.mark.parametrize("schema", [
        "repro-trace/1", "repro-digest/1", "repro-run/99",
    ])
    def test_load_rejects_other_schemas(self, tmp_path, schema):
        path = tmp_path / "TRACE_old.jsonl"
        path.write_text(json.dumps({"type": "header", "schema": schema}) + "\n")
        with pytest.raises(ValueError, match=f"expected '{RUN_SCHEMA}'"):
            load_events(path)

    def test_summarize_stable_across_round_trip(self, tmp_path):
        tracer = RoundTracer()
        net = Network(nx.cycle_graph(6), tracer=tracer)
        ping(net)
        tracer.close()
        direct = summarize_trace(tracer.events)
        path = write_events(tmp_path / trace_filename("rt"), tracer.events)
        reloaded = summarize_trace(load_events(path))
        assert render_timeline(reloaded) == render_timeline(direct)


# --------------------------------------------------------------------------- #
# Summaries and comparisons
# --------------------------------------------------------------------------- #

def _round(phase, messages, bits, wall_s=0.0):
    return {"type": "round", "round": 1, "label": f"{phase}:x",
            "phase": phase, "messages": messages, "bits": bits,
            "max_edge_bits": 1, "wall_s": wall_s}


HEADER = {"type": "header", "schema": RUN_SCHEMA, "n": 4, "m": 3}


class TestSummaries:
    def test_phase_order_is_first_appearance(self):
        events = [HEADER, _round("b", 1, 1), _round("a", 1, 1),
                  _round("b", 1, 1)]
        summary = summarize_trace(events)
        assert [p.phase for p in summary.phases] == ["b", "a"]
        assert summary.phase("b").rounds == 2
        assert summary.rounds == 3

    def test_compare_reports_deterministic_drift_only(self):
        a = [HEADER, _round("acd", 5, 50, wall_s=1.0)]
        b = [HEADER, _round("acd", 5, 50, wall_s=9.0)]
        assert compare_traces(a, b) == []  # wall-clock never drifts the gate
        c = [HEADER, _round("acd", 5, 60, wall_s=1.0)]
        drifts = compare_traces(a, c)
        assert [(d.phase, d.column, d.a, d.b) for d in drifts] == [
            ("acd", "bits", 50, 60)]

    def test_compare_covers_phases_missing_from_one_side(self):
        a = [HEADER, _round("acd", 1, 10)]
        b = [HEADER, _round("acd", 1, 10), _round("dense", 2, 20)]
        drifts = compare_traces(a, b)
        assert {(d.phase, d.column) for d in drifts} == {
            ("dense", "rounds"), ("dense", "messages"), ("dense", "bits")}


# --------------------------------------------------------------------------- #
# Resource sampler
# --------------------------------------------------------------------------- #

class TestSampler:
    def test_sample_fields(self):
        sample = ResourceSampler().sample()
        assert sample["rss_mb"] > 0
        assert sample["cpu_s"] >= 0

    def test_rss_helpers(self):
        assert current_rss_mb() > 0
        assert peak_rss_mb() >= current_rss_mb() * 0.5  # same order of magnitude
        assert cpu_seconds() >= 0

    def test_current_rss_falls_back_without_procfs(self, monkeypatch):
        """No /proc/self/statm (macOS, locked-down containers) -> lifetime peak."""
        import builtins

        real_open = builtins.open

        def no_procfs(path, *args, **kwargs):
            if path == "/proc/self/statm":
                raise OSError("no procfs here")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_procfs)
        assert current_rss_mb() == peak_rss_mb()

    def test_current_rss_falls_back_on_garbage_statm(self, monkeypatch):
        import builtins

        real_open = builtins.open

        def garbage_statm(path, *args, **kwargs):
            if path == "/proc/self/statm":
                return io.StringIO("short")  # one field -> IndexError
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", garbage_statm)
        assert current_rss_mb() == peak_rss_mb()


class TestSummarizeEdgeCases:
    def test_unlabeled_rounds_fold_into_empty_phase(self):
        # The simulator itself backfills empty labels with the program name,
        # so unlabeled rounds only occur in hand-written or foreign traces —
        # summarize_trace must still fold them into the "" phase.
        events = [
            {"type": "round", "round": 1, "label": "", "messages": 2,
             "bits": 4, "max_edge_bits": 2, "wall_s": 0.01},
            {"type": "round", "round": 2, "messages": 3, "bits": 6,
             "max_edge_bits": 2, "wall_s": 0.01},  # no label key at all
        ]
        summary = summarize_trace(events)
        assert [t.phase for t in summary.phases] == [""]
        assert summary.phase("").rounds == summary.rounds == 2
        assert summary.bits == 10
        # The printable timeline shows "-" instead of an invisible phase.
        from repro.obs import timeline_rows

        assert timeline_rows(summary)[0]["phase"] == "-"

    def test_empty_trace_summarizes_to_zeroes(self):
        summary = summarize_trace([])
        assert summary.rounds == 0 and summary.phases == []
        assert render_timeline(summary)  # renders (totals row), no crash

    def test_header_and_samples_only(self):
        events = [
            {"type": "header", "trial": 0, "scenario": "x"},
            {"type": "sample", "rss_mb": 12.5, "cpu_s": 0.1},
            {"type": "end", "rss_mb": 14.0},
        ]
        summary = summarize_trace(events)
        assert summary.trials == 1
        assert summary.samples == 1
        assert summary.peak_rss_mb == 14.0
        assert summary.rounds == 0


# --------------------------------------------------------------------------- #
# Runner integration: TRACE_* artifacts next to suite outputs
# --------------------------------------------------------------------------- #

class TestRunnerTracing:
    def _smoke_specs(self):
        return [s for s in get_suite("smoke")
                if s.name in ("gnp-d1c", "powerlaw-d1lc")]

    def test_trace_dir_writes_per_scenario_artifacts(self, tmp_path):
        specs = self._smoke_specs()
        result = run_scenarios(specs, suite="smoke", trace_dir=tmp_path)
        for spec in specs:
            path = tmp_path / trace_filename(spec.name)
            assert path.exists()
            events = load_events(path)
            headers = [e for e in events if e["type"] == "header"]
            assert [h["trial"] for h in headers] == list(range(spec.trials))
            # per-round trace sums == the trial rows' ledger aggregates
            summary = summarize_trace(events)
            rows = result.rows_for(spec.name)
            assert summary.bits == sum(r["total_bits"] for r in rows)
            assert summary.rounds == sum(r["rounds"] for r in rows)

    def test_traced_aggregate_matches_untraced(self, tmp_path):
        specs = self._smoke_specs()
        plain = run_scenarios(specs, suite="smoke")
        traced = run_scenarios(specs, suite="smoke", trace_dir=tmp_path)
        assert canonical_dumps(aggregate_suite(traced)) == \
            canonical_dumps(aggregate_suite(plain))

    def test_parallel_traces_deterministic_fields_match_serial(self, tmp_path):
        specs = self._smoke_specs()
        run_scenarios(specs, suite="smoke", trace_dir=tmp_path / "serial")
        run_scenarios(specs, suite="smoke", workers=2,
                      trace_dir=tmp_path / "parallel")
        for spec in specs:
            a = load_events(tmp_path / "serial" / trace_filename(spec.name))
            b = load_events(tmp_path / "parallel" / trace_filename(spec.name))
            assert compare_traces(a, b) == []

    def test_instrumented_trial_without_digest(self):
        spec = self._smoke_specs()[0]
        row, events = run_instrumented_trial(spec, 0)
        assert row["scenario"] == spec.name
        assert "state_digest" not in row
        header = events[0]
        assert header["scenario"] == spec.name
        assert header["trial"] == 0
        assert header["solver"] == spec.solver
        assert header["spec"]["name"] == spec.name  # bisect re-run input
        assert events[-1]["type"] == "end"
        assert "chain" not in events[-1]
