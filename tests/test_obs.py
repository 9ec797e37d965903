"""Tests for the observability subsystem (repro.obs).

The headline contract here is **observation-only tracing**: a traced run is
byte-identical to an untraced one on every transport backend, fault-free
and under fault plans.  The rest covers the trace event
stream, the JSONL artifacts, phase-timeline summaries, heartbeats, resource
sampling, and the suite runner / CLI integration.
"""

import io
import json
import time

import networkx as nx
import pytest

from repro.congest import Network
from repro.congest.program import NodeProgram
from repro.congest.simulator import Simulator
from repro.core import solve_d1c
from repro.experiments import (
    aggregate_suite,
    canonical_dumps,
    get_suite,
    run_scenarios,
    run_traced_trial,
)
from repro.obs import (
    NULL_TRACER,
    TRACE_SCHEMA,
    Heartbeat,
    NullTracer,
    ResourceSampler,
    RoundTracer,
    compare_traces,
    cpu_seconds,
    current_rss_mb,
    load_trace,
    make_tracer,
    peak_rss_mb,
    render_comparison,
    render_timeline,
    summarize_trace,
    trace_filename,
    write_trace,
)


class CountDown(NodeProgram):
    """Every node pings its neighbours for three rounds, then halts."""

    def init(self, ctx):
        ctx.state.memory["t"] = 0

    def step(self, ctx, inbox):
        ctx.state.memory["t"] += 1
        if ctx.state.memory["t"] >= 3:
            ctx.state.halt()
        return {v: 1 for v in ctx.network.neighbors(ctx.node)}

    def finish(self, ctx):
        return ctx.state.memory["t"]


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
        Simulator(net, CountDown(), seed=1).run(label="ping:step")
        tracer.close()
        kinds = [e["type"] for e in tracer.events]
        assert kinds[0] == "header"
        assert kinds[-1] == "end"
        rounds = [e for e in tracer.events if e["type"] == "round"]
        assert len(rounds) == 3
        header = tracer.events[0]
        assert header["schema"] == TRACE_SCHEMA
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
        Simulator(net, CountDown(), seed=1).run(label="ping:step")
        tracer.close()
        rounds = [e for e in tracer.events if e["type"] == "round"]
        assert sum(e["bits"] for e in rounds) == net.ledger.total_bits
        assert sum(e["messages"] for e in rounds) == net.ledger.total_messages
        assert len(rounds) == net.ledger.rounds

    def test_fault_deltas_in_round_events(self):
        tracer = RoundTracer()
        net = Network(nx.complete_graph(8), faults={"drop": 0.5},
                      fault_seed=7, tracer=tracer)
        Simulator(net, CountDown(), seed=1).run(label="ping:step")
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

    def test_tracers_compose_on_one_ledger(self):
        # Historically a second attach raised; the observer multiplexer now
        # fans the ledger's round callback out to every attached tracer (the
        # forensics DigestTracer rides the same seam — see test_forensics).
        first = RoundTracer()
        net = Network(nx.path_graph(3), tracer=first)
        second = RoundTracer()
        second.attach(net)
        net.exchange({(0, 1): 1}, label="a")
        assert len([e for e in first.events if e["type"] == "round"]) == 1
        assert len([e for e in second.events if e["type"] == "round"]) == 1
        second.close()
        net.exchange({(1, 2): 1}, label="b")
        assert len([e for e in first.events if e["type"] == "round"]) == 2
        assert len([e for e in second.events if e["type"] == "round"]) == 1
        first.close()
        assert net.ledger.observer is None

    def test_periodic_samples_use_injected_clock(self):
        fake = iter(range(100))
        tracer = RoundTracer(sample_every_s=2.0, clock=lambda: next(fake))
        net = Network(nx.path_graph(4), tracer=tracer)
        for _ in range(4):
            net.exchange({(0, 1): 1}, label="a")
        tracer.close()
        samples = [e for e in tracer.events if e["type"] == "sample"]
        assert samples, "no samples despite elapsed fake time"
        for sample in samples:
            assert sample["rss_mb"] > 0
            assert sample["cpu_s"] >= 0

    def test_make_tracer_factory(self):
        assert make_tracer(False) is None
        tracer = make_tracer(True, meta={"k": "v"})
        assert isinstance(tracer, RoundTracer)
        assert tracer.meta == {"k": "v"}


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

    def test_traced_simulation_identical(self):
        def run(tracer):
            net = Network(nx.cycle_graph(10), tracer=tracer)
            result = Simulator(net, CountDown(), seed=2).run(label="ping:step")
            return result, ledger_fingerprint(net)

        plain_result, plain_ledger = run(None)
        tracer = RoundTracer()
        traced_result, traced_ledger = run(tracer)
        tracer.close()
        assert traced_result.outputs == plain_result.outputs
        assert traced_result.rounds == plain_result.rounds
        assert traced_ledger == plain_ledger

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
# Trace artifacts: filenames, JSONL round-trip, schema checks
# --------------------------------------------------------------------------- #

class TestTraceArtifacts:
    def test_trace_filename_sanitizes(self):
        assert trace_filename("gnp-d1c") == "TRACE_gnp-d1c.jsonl"
        assert trace_filename("weird name/x:y") == "TRACE_weird_name_x_y.jsonl"

    def test_write_load_round_trip(self, tmp_path):
        tracer = RoundTracer(meta={"scenario": "rt"})
        net = Network(nx.path_graph(4), tracer=tracer)
        net.exchange({(0, 1): 1}, label="a:one")
        tracer.close()
        path = write_trace(tmp_path / trace_filename("rt"), tracer.events)
        loaded = load_trace(path)
        assert loaded == [json.loads(json.dumps(e, sort_keys=True, default=str))
                          for e in tracer.events]
        # one JSON object per line, keys sorted
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.events)
        for line in lines:
            obj = json.loads(line)
            assert list(obj) == sorted(obj)

    def test_load_trace_rejects_non_trace_jsonl(self, tmp_path):
        path = tmp_path / "TRACE_bogus.jsonl"
        path.write_text('{"type": "round", "round": 1}\n')
        with pytest.raises(ValueError, match="no header"):
            load_trace(path)

    def test_load_trace_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "TRACE_future.jsonl"
        path.write_text('{"type": "header", "schema": "repro-trace/99"}\n')
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_trace(path)

    def test_summarize_stable_across_round_trip(self, tmp_path):
        tracer = RoundTracer()
        net = Network(nx.cycle_graph(6), tracer=tracer)
        Simulator(net, CountDown(), seed=1).run(label="ping:step")
        tracer.close()
        direct = summarize_trace(tracer.events)
        path = write_trace(tmp_path / trace_filename("rt"), tracer.events)
        reloaded = summarize_trace(load_trace(path))
        assert render_timeline(reloaded) == render_timeline(direct)


# --------------------------------------------------------------------------- #
# Summaries and comparisons
# --------------------------------------------------------------------------- #

def _round(phase, messages, bits, wall_s=0.0):
    return {"type": "round", "round": 1, "label": f"{phase}:x",
            "phase": phase, "messages": messages, "bits": bits,
            "max_edge_bits": 1, "wall_s": wall_s}


HEADER = {"type": "header", "schema": TRACE_SCHEMA, "n": 4, "m": 3}


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

    def test_render_comparison_mentions_drift_state(self):
        a = [HEADER, _round("acd", 1, 10)]
        assert "no drift" in render_comparison(a, list(a))
        b = [HEADER, _round("acd", 1, 11)]
        assert "deterministic drift" in render_comparison(a, b)


# --------------------------------------------------------------------------- #
# Heartbeat and resource sampler
# --------------------------------------------------------------------------- #

class TestHeartbeat:
    def test_rate_limited_by_interval(self):
        clock = iter([0.0, 1.0, 5.0, 6.0, 12.0]).__next__
        stream = io.StringIO()
        hb = Heartbeat(interval_s=5.0, stream=stream, clock=clock)
        fired = [hb.maybe_beat(lambda: "line") for _ in range(5)]
        # first call only starts the clock; beats at t=5 and t=12
        assert fired == [False, False, True, False, True]
        assert stream.getvalue() == "line\nline\n"
        assert hb.beats == 2

    def test_zero_interval_emits_every_call(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream, clock=lambda: 0.0)
        assert hb.maybe_beat(lambda: "a")
        assert hb.maybe_beat(lambda: "b")
        assert stream.getvalue() == "a\nb\n"

    def test_render_not_called_when_not_due(self):
        hb = Heartbeat(interval_s=100.0, stream=io.StringIO(),
                       clock=lambda: 0.0)
        hb.maybe_beat(lambda: pytest.fail("rendered a line that is not due"))

    def test_tracer_heartbeat_lines(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        tracer = RoundTracer(heartbeat=hb)
        net = Network(nx.cycle_graph(6), tracer=tracer)
        Simulator(net, CountDown(), seed=1).run(label="ping:step")
        tracer.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3  # one per round at interval 0
        assert "[trace] round 1 ping:" in lines[0]
        assert "rss" in lines[0]


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
            events = load_trace(path)
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
            a = load_trace(tmp_path / "serial" / trace_filename(spec.name))
            b = load_trace(tmp_path / "parallel" / trace_filename(spec.name))
            assert compare_traces(a, b) == []

    def test_run_traced_trial_returns_row_and_events(self):
        spec = self._smoke_specs()[0]
        row, events = run_traced_trial(spec, 0)
        assert row["scenario"] == spec.name
        header = events[0]
        assert header["scenario"] == spec.name
        assert header["trial"] == 0
        assert header["solver"] == spec.solver
        assert events[-1]["type"] == "end"
