"""Determinism forensics tests (repro.obs.forensics).

The headline contracts pinned here:

* **Digest byte-identity** — a scenario's ``DIGEST_*.jsonl`` file is byte
  for byte identical across both transport backends (dict/columnar),
  across the trial-worker process boundary (``--workers 1`` vs ``2``), and
  with or without ``--trace`` riding on the same tracer.
* **Observation-only** — digesting consumes no RNG: rows, ledgers, and
  outputs are byte-identical to an undigested run.
* **Localization** — ``repro diff`` names the first divergent (round,
  phase) of two TRACE or DIGEST streams, and ``--bisect`` re-runs a fine
  window to name the exact injected (round, node) of a single-edge fault.
"""

import json
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

from repro.congest import Message, Network
from repro.experiments import (
    aggregate_suite,
    canonical_dumps,
    get_suite,
    run_scenarios,
)
from repro.experiments.compare import compare_summaries, gate_passes
from repro.experiments.registry import GRAPH_FAMILIES
from repro.experiments.runner import (
    run_instrumented_trial,
    run_trial,
)
from repro.experiments.spec import trial_seeds
from repro.obs import (
    RoundTracer,
    deterministic_events,
    digest_filename,
    trace_filename,
)
from repro.obs.forensics import (
    MultisetDigest,
    bisect_divergence,
    canonical_bytes,
    first_divergence,
    payload_hash,
    render_bisect,
    render_divergence,
    select_trial,
    spec_from_payload,
    spec_payload,
    split_trials,
)


def smoke_spec(name, **overrides):
    spec = next(s for s in get_suite("smoke") if s.name == name)
    return replace(spec, **overrides) if overrides else spec


def digest_run(spec, trial=0):
    """One digested trial: its row and the DIGEST view of its events."""
    row, events = run_instrumented_trial(spec, trial, digest=True)
    return row, deterministic_events(events)


def digest_file(tmp_path, name, specs, **run_options):
    """Run ``specs`` with ``digest_dir`` set; the rows and DIGEST file bytes."""
    out = tmp_path / name
    result = run_scenarios(specs, suite="smoke", digest_dir=out,
                           **run_options)
    files = {spec.name: (out / digest_filename(spec.name)).read_bytes()
             for spec in specs}
    return result, files


def strip_machine(row):
    row = dict(row)
    row.pop("wall_s", None)
    row.pop("peak_rss_mb", None)
    return row


# --------------------------------------------------------------------------- #
# Digest primitives
# --------------------------------------------------------------------------- #

class TestDigestPrimitives:
    def test_canonical_bytes_separates_types(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes((1, 2)) != canonical_bytes([1, 2])
        assert canonical_bytes(b"x") != canonical_bytes("x")
        assert canonical_bytes(1.0) != canonical_bytes(1)

    def test_canonical_bytes_is_order_canonical_for_mappings(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})
        assert canonical_bytes({2, 1, 3}) == canonical_bytes({3, 2, 1})

    def test_payload_hash_int_fast_path_matches_itself(self):
        assert payload_hash(5) == payload_hash(5)
        assert payload_hash(5) != payload_hash(6)
        assert payload_hash(-1) != payload_hash(1)
        assert payload_hash("x") != payload_hash(b"x")

    def test_multiset_digest_is_order_free(self):
        entries = [payload_hash(v) for v in (3, 1, 2, 2)]
        forward = MultisetDigest()
        forward.add_many(entries)
        backward = MultisetDigest()
        backward.add_many(reversed(entries))
        assert (forward.value, forward.count) == (backward.value, backward.count)
        assert forward.count == 4


    def test_broadcast_with_bits_digests_as_the_message_broadcast(self):
        """A digesting tracer hashes a broadcast with ``bits`` as the same
        (sender, receiver, payload) entries as the broadcast of
        ``Message(value, bits)``, per round and per receiver."""
        graph = nx.star_graph(4)
        graph.add_edge(2, "leaf")
        values = {0: 3, 2: (1, "a"), "leaf": 3}
        streams = []
        for backend in ("dict", "columnar"):
            for sized in (False, True):
                tracer = RoundTracer(digest=True, fine_rounds=(1, 2))
                network = Network(graph, backend=backend, tracer=tracer)
                if sized:
                    network.broadcast(values, label="c", bits=7)
                else:
                    network.broadcast({v: Message(content=value, bits=7)
                                       for v, value in values.items()}, label="c")
                network.charge_silent_round(label="s")
                tracer.close()
                streams.append([{k: v for k, v in event.items() if k != "backend"}
                                for event in deterministic_events(tracer.events)])
        assert streams[0][1]["payload_n"] == 4 + 2 + 1  # the senders' degrees
        assert all(stream == streams[0] for stream in streams[1:])


# --------------------------------------------------------------------------- #
# Byte-identity of the DIGEST file across backends, workers and --trace
# --------------------------------------------------------------------------- #

class TestDigestByteIdentity:
    def test_streams_identical_across_backends(self, tmp_path):
        # planted-acd exercises the columnar buddy-sweep decline; gnp-d1c
        # the coloring pipeline.  "dict" is the reference side.
        specs = [smoke_spec(name, trials=1)
                 for name in ("gnp-d1c", "planted-acd")]
        ref, ref_files = digest_file(
            tmp_path, "dict", [replace(s, backend="dict") for s in specs])
        col, files = digest_file(
            tmp_path, "columnar", [replace(s, backend="columnar") for s in specs])
        assert files == ref_files
        assert [strip_machine(r) for r in col.rows()] == \
            [strip_machine(r) for r in ref.rows()]

    def test_streams_identical_across_trial_worker_boundary(self, tmp_path):
        specs = [smoke_spec("gnp-d1c"), smoke_spec("powerlaw-d1lc")]
        _, serial = digest_file(tmp_path, "serial", specs)
        _, parallel = digest_file(tmp_path, "parallel", specs, workers=2)
        assert serial == parallel

    def test_trace_and_digest_run_writes_the_digest_only_file(self, tmp_path):
        spec = smoke_spec("gnp-d1c", trials=1)
        solo, solo_files = digest_file(tmp_path, "solo", [spec])
        both, both_files = digest_file(tmp_path, "both", [spec],
                                       trace_dir=tmp_path / "both")
        assert both_files == solo_files
        assert both.rows()[0]["state_digest"] == solo.rows()[0]["state_digest"]
        trace = (tmp_path / "both" / trace_filename(spec.name)).read_text()
        end = json.loads(trace.splitlines()[-1])
        assert end["chain"] == both.rows()[0]["state_digest"]
        assert "wall_s" in end  # the TRACE file keeps the machine fields

    def test_chain_matches_the_committed_forensics_baseline(self):
        # The chain encoding must keep every recorded repro-run/1 chain
        # valid: a fresh digest of a smoke trial equals the committed one.
        committed = json.loads(
            (Path(__file__).resolve().parent.parent
             / "BENCH_forensics.json").read_text())
        spec = smoke_spec("gnp-johansson")
        row, _ = digest_run(spec, 1)
        assert row["state_digest"] == \
            committed["scenarios"][spec.name]["state_digest"][1]

    def test_digesting_is_observation_only(self):
        spec = smoke_spec("gnp-johansson", trials=1)
        plain = strip_machine(run_trial(spec, 0))
        digested, events = digest_run(spec)
        digest_value = digested.pop("state_digest")
        assert strip_machine(digested) == plain
        assert digest_value == events[-1]["chain"]
        # runs of the same spec digest identically
        again, _ = digest_run(spec)
        assert again["state_digest"] == digest_value

    def test_spec_payload_round_trip_preserves_seeds(self):
        spec = smoke_spec("planted-acd",
                          faults={"delay": {(0, 1): 2}, "drop": 0.01})
        rebuilt = spec_from_payload(spec_payload(spec))
        assert trial_seeds(rebuilt, 0) == trial_seeds(spec, 0)
        assert trial_seeds(rebuilt, 1) == trial_seeds(spec, 1)
        from repro.faults import FaultPlan

        assert FaultPlan.coerce(rebuilt.faults).canonical() == \
            FaultPlan.coerce(spec.faults).canonical()


# --------------------------------------------------------------------------- #
# Alignment: first_divergence
# --------------------------------------------------------------------------- #

class TestFirstDivergence:
    def test_identical_streams_do_not_diverge(self):
        spec = smoke_spec("gnp-d1c", trials=1)
        _, events_a = digest_run(spec)
        _, events_b = digest_run(spec)
        assert first_divergence(events_a, events_b) is None
        assert "identical" in render_divergence(None)

    def test_faulted_twin_diverges_on_inbox(self):
        spec = smoke_spec("gnp-d1c", trials=1)
        _, clean = digest_run(spec)
        _, faulted = digest_run(replace(spec, faults={"corrupt": 2e-3}))
        div = first_divergence(clean, faulted)
        assert div is not None
        assert div.component == "inbox"
        assert div.round is not None and div.round >= 1
        assert "fault plans differ" in div.detail
        rendered = render_divergence(div)
        assert f"round {div.round}" in rendered

    def test_workload_header_mismatch_is_terminal(self):
        spec = smoke_spec("gnp-d1c", trials=1)
        _, events_a = digest_run(spec)
        _, events_b = digest_run(replace(spec, seed=99))
        div = first_divergence(events_a, events_b)
        assert div is not None and div.component == "header"
        assert "different workloads" in div.detail

    def test_trial_selection(self):
        spec = smoke_spec("gnp-d1c")  # two trials
        trials = [digest_run(spec, trial=t)[1] for t in (0, 1)]
        stream = trials[0] + trials[1]
        assert select_trial(stream, 1) == trials[1]
        assert select_trial(stream, 5) == []
        other = trials[0] + digest_run(replace(spec, seed=99), trial=1)[1]
        assert first_divergence(stream, other) is not None
        assert first_divergence(select_trial(stream, 0),
                                select_trial(other, 0)) is None

    def test_split_trials_requires_header_first(self):
        with pytest.raises(ValueError, match="header"):
            split_trials([{"type": "round", "round": 1}])

    def test_trace_streams_align_on_counters(self):
        spec = smoke_spec("gnp-d1c", trials=1)
        _, traced = run_instrumented_trial(spec, 0)
        _, digested = digest_run(spec)
        # A trace-only side carries no chain: rounds align on label and
        # counters, and the same run matches its own DIGEST view.
        assert first_divergence(traced, digested) is None
        drifted = [dict(e) for e in traced]
        third = [e for e in drifted if e["type"] == "round"][2]
        third["bits"] += 1
        div = first_divergence(digested, drifted)
        assert div is not None
        assert (div.round, div.component) == (third["round"], "counters")


# --------------------------------------------------------------------------- #
# Bisection: the injected-fault localization contract
# --------------------------------------------------------------------------- #

class TestBisect:
    def test_bisect_names_injected_round_and_node(self, monkeypatch):
        # Inject a single-edge, one-slot delay — exactly one message stream
        # perturbed — and record the ground truth (transport round, edge) by
        # spying on the fault filter.  The digest round index is the ledger's
        # post-increment observer index, i.e. transport round + 1.  LOCAL
        # mode delivers the late message in the very next round; in CONGEST
        # mode a late payload wider than the budget would wait for the next
        # chunked round, so the divergence could land later.
        # gnp-johansson digests deliveries from round 1, so the perturbed
        # delivery is localizable to its receiver (a broadcast_discard round
        # would diverge on counters only, by design).
        spec = smoke_spec("gnp-johansson", trials=1, mode="local")
        graph_seed, _ = trial_seeds(spec, 0)
        graph, _ = GRAPH_FAMILIES[spec.family](
            graph_seed, **dict(spec.family_params))
        u, v = sorted(graph.edges())[0]
        faulted = replace(spec, faults={"delay": {(u, v): 1}})

        from repro.faults.transport import FaultyTransport

        original = FaultyTransport._filter
        modifications = []

        def spy(self, messages, round_id, label, *args, **kwargs):
            out = original(self, messages, round_id, label, *args, **kwargs)
            for edge in messages:
                if edge not in out or out[edge] != messages[edge]:
                    modifications.append((round_id, edge))
            return out

        monkeypatch.setattr(FaultyTransport, "_filter", spy)
        _, faulted_events = digest_run(faulted)
        monkeypatch.setattr(FaultyTransport, "_filter", original)
        _, clean_events = digest_run(spec)

        assert modifications, "the injected edge never carried a message"
        injected_round, injected_edge = modifications[0]
        assert injected_edge == (u, v)

        div = first_divergence(clean_events, faulted_events)
        assert div is not None
        assert div.round == injected_round + 1
        assert div.component == "inbox"

        report = bisect_divergence(clean_events, faulted_events,
                                   divergence=div)
        assert report.fine is not None
        assert report.fine.round == injected_round + 1
        assert report.fine.node == repr(v)
        assert report.fine.component == "inbox"
        # the fine re-runs reproduced the stored chains: no suspicion notes
        assert report.notes == []
        rendered = render_bisect(report)
        assert f"first divergent node: {v!r}" in rendered

    def test_bisect_on_identical_streams_is_none(self):
        spec = smoke_spec("gnp-d1c", trials=1)
        _, events_a = digest_run(spec)
        _, events_b = digest_run(spec)
        assert bisect_divergence(events_a, events_b) is None
        assert "nothing to bisect" in render_bisect(None)

    def test_bisect_from_trace_streams(self):
        # Trace-only streams carry the spec but no chain: the fine re-runs
        # still localize, and there is no stored chain to check them against.
        spec = smoke_spec("gnp-johansson", trials=1)
        _, clean = run_instrumented_trial(spec, 0)
        _, dropped = run_instrumented_trial(
            replace(spec, faults={"drop": 0.05}), 0)
        report = bisect_divergence(clean, dropped)
        assert report.divergence.component == "counters"
        assert report.fine is not None and report.fine.node is not None
        assert report.notes == []

    def test_fine_mode_windows_per_node_data(self):
        # gnp-johansson: every round digests its deliveries (no discard rounds)
        spec = smoke_spec("gnp-johansson", trials=1)
        tracer = RoundTracer(digest=True, fine_rounds=(2, 3))
        try:
            run_trial(spec, 0, tracer=tracer)
        finally:
            tracer.close()
        block = split_trials(tracer.events)[0]
        assert sorted(block["fine"]) == [2, 3]
        fine = block["fine"][2]
        assert fine["inbox"]
        for node_key, entry in fine["inbox"].items():
            assert isinstance(node_key, str)
            digest_hex, count = entry
            int(digest_hex, 16)
            assert count >= 1
        # fine events never perturb the chain: identical to a coarse run
        _, coarse = digest_run(spec)
        assert [e["chain"] for e in block["rounds"]] == \
            [e["chain"] for e in split_trials(coarse)[0]["rounds"]]


# --------------------------------------------------------------------------- #
# Aggregate + compare integration
# --------------------------------------------------------------------------- #

class TestCompareDigests:
    def _summaries(self, tmp_path):
        specs = [smoke_spec("gnp-d1c", trials=1)]
        plain = aggregate_suite(run_scenarios(specs, suite="smoke"))
        digested = aggregate_suite(run_scenarios(
            specs, suite="smoke", digest_dir=tmp_path))
        return plain, digested

    def test_cross_digest_baseline_is_refused(self, tmp_path):
        plain, digested = self._summaries(tmp_path)
        findings = compare_summaries(plain, digested)
        assert not gate_passes(findings)
        assert any(f.metric == "digests" and "--digest" in f.detail
                   for f in findings)
        findings = compare_summaries(digested, plain)
        assert not gate_passes(findings)

    def test_digest_drift_fails_with_localization_hint(self, tmp_path):
        _, digested = self._summaries(tmp_path)
        import copy

        drifted = copy.deepcopy(digested)
        drifted["scenarios"]["gnp-d1c"]["state_digest"][0] = "0" * 16
        findings = compare_summaries(digested, drifted)
        assert not gate_passes(findings)
        assert any(f.metric == "state_digest" and "repro diff" in f.detail
                   for f in findings)

    def test_plain_aggregate_schema_is_untouched(self, tmp_path):
        plain, digested = self._summaries(tmp_path)
        assert "digests" not in plain
        assert "state_digest" not in plain["scenarios"]["gnp-d1c"]
        assert digested["digests"] is True
        # metrics themselves are identical: the digest is identity, not metric
        assert plain["scenarios"]["gnp-d1c"]["metrics"] == \
            digested["scenarios"]["gnp-d1c"]["metrics"]

    def test_digested_aggregate_deterministic_across_workers(self, tmp_path):
        specs = [smoke_spec("gnp-d1c")]
        a = aggregate_suite(run_scenarios(specs, suite="smoke",
                                          digest_dir=tmp_path / "a"))
        b = aggregate_suite(run_scenarios(specs, suite="smoke", workers=2,
                                          digest_dir=tmp_path / "b"))
        assert canonical_dumps(a) == canonical_dumps(b)


# --------------------------------------------------------------------------- #
# Trend localization (repro report trend upgrade)
# --------------------------------------------------------------------------- #

class TestTrendLocalization:
    def _record(self, digest, digest_dir=None, scenarios=("gnp-d1c",)):
        record = {
            "schema": "repro-runs/1", "suite": "smoke", "digest": digest,
            "scenarios": list(scenarios), "trials": 1, "valid_trials": 1,
        }
        if digest_dir is not None:
            record["digest_dir"] = str(digest_dir)
        return record

    def test_no_stored_streams_degrades_to_info(self):
        from repro.obs.analytics import detect_trends

        findings = detect_trends([self._record("a" * 64),
                                  self._record("b" * 64)])
        assert gate_passes(findings)
        assert any("--digest" in f.detail for f in findings)

    def test_same_directory_is_called_out(self):
        from repro.obs.analytics import localize_digest_change

        prev = self._record("a" * 64, digest_dir="/tmp/x")
        cur = self._record("b" * 64, digest_dir="/tmp/x")
        findings = localize_digest_change("smoke", prev, cur)
        assert gate_passes(findings)
        assert any("overwritten" in f.detail for f in findings)

    def test_missing_stream_is_an_info_finding(self, tmp_path):
        from repro.obs.analytics import localize_digest_change

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        prev = self._record("a" * 64, digest_dir=tmp_path / "a")
        cur = self._record("b" * 64, digest_dir=tmp_path / "b")
        findings = localize_digest_change("smoke", prev, cur)
        assert gate_passes(findings)
        assert any("missing" in f.detail for f in findings)

    def test_divergent_streams_localize(self, tmp_path):
        from repro.obs.analytics import localize_digest_change

        spec = smoke_spec("gnp-d1c", trials=1)
        run_scenarios([spec], suite="smoke", digest_dir=tmp_path / "a")
        run_scenarios([replace(spec, faults={"corrupt": 2e-3})],
                      suite="smoke", digest_dir=tmp_path / "b")
        prev = self._record("a" * 64, digest_dir=tmp_path / "a")
        cur = self._record("b" * 64, digest_dir=tmp_path / "b")
        findings = localize_digest_change("smoke", prev, cur)
        assert any("first divergence at round" in f.detail
                   and "repro diff" in f.detail for f in findings)
        assert gate_passes(findings)


# --------------------------------------------------------------------------- #
# CLI: repro diff / suite run --digest / report trend (satellite 2)
# --------------------------------------------------------------------------- #

class TestCli:
    def _digest_streams(self, tmp_path):
        from repro.cli import main

        rc = main(["suite", "run", "smoke", "--only", "gnp-d1c",
                   "--trials", "1", "--out", str(tmp_path / "a"),
                   "--digest", str(tmp_path / "a")])
        assert rc == 0
        rc = main(["suite", "run", "smoke", "--only", "gnp-d1c",
                   "--trials", "1", "--out", str(tmp_path / "b"),
                   "--digest", str(tmp_path / "b"),
                   "--faults", "corrupt=2e-3"])
        assert rc == 0
        return (tmp_path / "a" / "DIGEST_gnp-d1c.jsonl",
                tmp_path / "b" / "DIGEST_gnp-d1c.jsonl")

    def test_diff_exit_codes_and_bisect(self, tmp_path, capsys):
        from repro.cli import main

        clean, faulted = self._digest_streams(tmp_path)
        assert main(["diff", str(clean), str(clean)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["diff", str(clean), str(faulted)]) == 1
        assert "first divergence at round" in capsys.readouterr().out
        assert main(["diff", str(clean), str(faulted), "--bisect"]) == 1
        assert "first divergent node" in capsys.readouterr().out

    def test_diff_json_payload(self, tmp_path, capsys):
        from repro.cli import main

        clean, faulted = self._digest_streams(tmp_path)
        capsys.readouterr()  # drain the suite-run output
        assert main(["diff", str(clean), str(faulted), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert payload["divergence"]["component"] == "inbox"

    def test_diff_unreadable_input_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "DIGEST_x.jsonl"
        bogus.write_text('{"type": "round"}\n')
        assert main(["diff", str(bogus), str(bogus)]) == 2

    def test_diff_trace_file_against_digest_file(self, tmp_path, capsys):
        from repro.cli import main

        def run(name, *extra):
            out = tmp_path / name
            assert main(["suite", "run", "smoke", "--only", "gnp-d1c",
                         "--trials", "1", "--out", str(out), *extra]) == 0
            return out

        trace = run("traced", "--trace", str(tmp_path / "traced"))
        clean = run("clean", "--digest", str(tmp_path / "clean"))
        dropped = run("dropped", "--digest", str(tmp_path / "dropped"),
                      "--faults", "drop=0.05")
        trace = trace / "TRACE_gnp-d1c.jsonl"
        capsys.readouterr()
        # No chain on the trace-only side: rounds align on label and
        # counters, which the clean run shares and the dropping twin does
        # not.
        assert main(["diff", str(trace),
                     str(clean / "DIGEST_gnp-d1c.jsonl")]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["diff", str(trace),
                     str(dropped / "DIGEST_gnp-d1c.jsonl")]) == 1
        out = capsys.readouterr().out
        assert "first divergence at round" in out
        assert "first: counters" in out

    def test_diff_trial_restricts_divergence_and_drift(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run"
        assert main(["suite", "run", "smoke", "--only", "gnp-d1c",
                     "--trials", "2", "--out", str(out),
                     "--trace", str(out)]) == 0
        trace = out / "TRACE_gnp-d1c.jsonl"
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        trial = None
        for event in events:
            if event["type"] == "header":
                trial = event["trial"]
            elif trial == 1 and event["type"] == "round":
                event["bits"] += 1
                break
        drifted = tmp_path / "TRACE_drifted.jsonl"
        drifted.write_text("".join(json.dumps(e) + "\n" for e in events))
        capsys.readouterr()
        assert main(["diff", str(trace), str(drifted), "--trial", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True and payload["drift"] == []
        assert main(["diff", str(trace), str(drifted), "--trial", "1",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergence"]["trial"] == 1
        assert [d["column"] for d in payload["drift"]] == ["bits"]

    def test_suite_run_digest_writes_stream_and_registry(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        out = tmp_path / "run"
        rc = main(["suite", "run", "smoke", "--only", "gnp-d1c",
                   "--trials", "1", "--out", str(out),
                   "--digest", str(out)])
        assert rc == 0
        assert "digests:" in capsys.readouterr().out
        assert (out / "DIGEST_gnp-d1c.jsonl").exists()
        summary = json.loads((out / "BENCH_suite.json").read_text())
        assert summary["digests"] is True
        records = [json.loads(line) for line
                   in (out / "RUNS.jsonl").read_text().splitlines()]
        assert records[0]["digest_dir"] == str(out)

    def test_report_trend_survives_empty_registry(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "RUNS.jsonl").write_text("")
        assert main(["report", "trend", "--dir", str(tmp_path)]) == 0
        assert "no run history" in capsys.readouterr().out

    def test_report_trend_survives_garbage_registry(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "RUNS.jsonl").write_text(
            '{"schema": "other/1"}\nnot json at all\n')
        assert main(["report", "trend", "--dir", str(tmp_path)]) == 0
        assert "no run history" in capsys.readouterr().out

    def test_report_trend_missing_registry(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "trend", "--dir", str(tmp_path)]) == 0
