"""Tests for the fault-injection subsystem (repro.faults)."""

import dataclasses

import networkx as nx
import pytest

from repro.congest import BandwidthExceeded, Network, ProtocolError
from repro.congest.columnar.transport import ColumnarTransport
from repro.congest.message import Message
from repro.congest.topology import Topology
from repro.congest.transport import DictTransport, make_transport
from repro.core import solve_d1c, solve_d1lc
from repro.faults import FaultPlan, FaultyTransport, corrupt_bits, corrupt_payload
from repro.faults.corruption import to_unit
from repro.faults.transport import _CORRUPT_SALT, _DROP_SALT
from repro.graphs import degree_plus_one_lists
from repro.hashing.keys import element_key, mix64
from repro.metrics.ledger import Ledger
from round_driver import by_edge


def small_graph(n=30, p=0.2, seed=1):
    return nx.gnp_random_graph(n, p, seed=seed)


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #

class TestFaultPlan:
    def test_defaults_are_a_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan.coerce({}) is None
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(FaultPlan()) is None

    def test_any_axis_breaks_noop(self):
        assert not FaultPlan(drop=0.1).is_noop
        assert not FaultPlan(corrupt=0.1).is_noop
        assert not FaultPlan(crash={0: (1,)}).is_noop
        assert not FaultPlan(throttle=0.5).is_noop
        assert not FaultPlan(delay={(0, 1): 2}).is_noop

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(corrupt=-0.1)
        with pytest.raises(ValueError, match="throttle"):
            FaultPlan(throttle=0.0)
        with pytest.raises(ValueError, match="throttle"):
            FaultPlan(throttle=2.0)
        with pytest.raises(ValueError, match="crash round"):
            FaultPlan(crash={-1: (0,)})
        with pytest.raises(ValueError, match="delay"):
            FaultPlan(delay={(0, 1): -2})
        with pytest.raises(ValueError, match="pairs"):
            FaultPlan(delay={0: 2})

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="dorp"):
            FaultPlan.from_params({"dorp": 0.1})
        with pytest.raises(ValueError, match="crash"):
            FaultPlan.from_params({"crash": 0.5})

    def test_canonical_round_trips_through_json(self):
        import json

        plan = FaultPlan(drop=0.1, corrupt=1e-3, crash={2: (5, 1)},
                         throttle=0.5, delay={(0, 1): 2})
        encoded = json.loads(json.dumps(plan.canonical()))
        assert encoded == plan.canonical()
        # Crash nodes are stored sorted, so equal plans encode equally.
        assert plan.canonical() == FaultPlan(
            drop=0.1, corrupt=1e-3, crash={2: (1, 5)}, throttle=0.5,
            delay={(0, 1): 2},
        ).canonical()

    def test_master_seed_depends_on_seed_and_plan(self):
        plan = FaultPlan(drop=0.1)
        other = FaultPlan(drop=0.2)
        assert plan.master_seed(1) == plan.master_seed(1)
        assert plan.master_seed(1) != plan.master_seed(2)
        assert plan.master_seed(1) != other.master_seed(1)

    def test_throttled_bandwidth(self):
        assert FaultPlan(throttle=0.5).throttled_bandwidth(64) == 32
        assert FaultPlan(throttle=0.25).throttled_bandwidth(3) == 1  # floor >= 1
        assert FaultPlan().throttled_bandwidth(64) == 64


# --------------------------------------------------------------------------- #
# Corruption operators
# --------------------------------------------------------------------------- #

class TestCorruption:
    def test_corrupt_bits_edge_rates(self):
        bits = (0, 1) * 32
        same, flips = corrupt_bits(bits, 0.0, seed=7)
        assert same == bits and flips == 0
        flipped, flips = corrupt_bits(bits, 1.0, seed=7)
        assert flips == len(bits)
        assert flipped == tuple(1 - b for b in bits)

    def test_corrupt_bits_deterministic_and_seed_sensitive(self):
        bits = tuple(i % 2 for i in range(200))
        a = corrupt_bits(bits, 0.3, seed=11)
        assert a == corrupt_bits(bits, 0.3, seed=11)
        assert a != corrupt_bits(bits, 0.3, seed=12)
        corrupted, flips = a
        assert 0 < flips < len(bits)
        assert sum(x != y for x, y in zip(bits, corrupted)) == flips

    def test_corrupt_int_stays_within_width(self):
        value, flips = corrupt_payload(0b1011, 1.0, seed=3)
        assert flips == 4
        assert 0 <= value < 16
        value, flips = corrupt_payload(-5, 1.0, seed=3)
        assert value <= 0  # sign preserved, magnitude corrupted

    def test_corrupt_message_keeps_declared_bits(self):
        msg = Message(content=(0, 1, 1, 0), bits=4, label="probe")
        corrupted, flips = corrupt_payload(msg, 1.0, seed=5)
        assert flips == 4
        assert corrupted.bits == 4 and corrupted.label == "probe"
        assert corrupted.content == (1, 0, 0, 1)

    def test_zero_flips_returns_original_object(self):
        payload = (1, 2, 3)
        corrupted, flips = corrupt_payload(payload, 0.0, seed=1)
        assert corrupted is payload and flips == 0

    def test_containers_preserve_type_and_do_not_mutate(self):
        payload = [3, (7, 9), "ab"]
        snapshot = [3, (7, 9), "ab"]
        corrupted, flips = corrupt_payload(payload, 1.0, seed=2)
        assert payload == snapshot  # original untouched
        assert isinstance(corrupted, list) and isinstance(corrupted[1], tuple)
        assert flips > 0
        assert isinstance(corrupted[2], str) and len(corrupted[2]) == 2

    def test_untouchable_payloads_pass_through(self):
        for payload in (None, 2.5):
            assert corrupt_payload(payload, 1.0, seed=1) == (payload, 0)

    def test_equal_containers_corrupt_identically_regardless_of_order(self):
        # Sub-seeds come from keys/canonical positions, never from insertion
        # or iteration order — otherwise per-process hash salting of str
        # keys would break the worker-count determinism guarantee.
        a = {"x": 1000, "y": 999999, "z": 12345}
        b = {"z": 12345, "y": 999999, "x": 1000}
        assert corrupt_payload(a, 0.3, seed=5) == corrupt_payload(b, 0.3, seed=5)
        s = {"alpha", "beta", "gamma"}
        t = {"gamma", "alpha", "beta"}
        assert corrupt_payload(s, 0.3, seed=5) == corrupt_payload(t, 0.3, seed=5)


# --------------------------------------------------------------------------- #
# FaultyTransport mechanics
# --------------------------------------------------------------------------- #

def faulty_network(graph, faults, seed=0, **kwargs):
    return Network(graph, faults=faults, fault_seed=seed, **kwargs)


class TestFaultyTransport:
    def test_noop_plan_is_never_wrapped(self):
        graph = small_graph()
        topology = Topology(graph)
        bare = make_transport("columnar", topology, "congest", 64,
                              Ledger(), faults={})
        assert not isinstance(bare, FaultyTransport)
        assert bare.name == "columnar"
        net = Network(graph, faults=None)
        assert net.backend == "columnar" and net.fault_stats is None
        # An empty plan is fault-free everywhere.
        net = Network(graph, faults={})
        assert net.backend == "columnar" and net.fault_stats is None

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_a_plan_builds_the_oracle_and_no_backend(self, backend, monkeypatch):
        built = []
        monkeypatch.setattr(ColumnarTransport, "__init__",
                            lambda *args: built.append(args))
        topology = Topology(small_graph())
        faulted = make_transport(backend, topology, "congest", 64, Ledger(),
                                 faults={"drop": 0.5})
        assert type(faulted) is FaultyTransport and built == []
        assert FaultyTransport.__mro__[1] is DictTransport
        assert faulted.name == "faults"
        with pytest.raises(ValueError, match="unknown transport backend"):
            make_transport("slot", topology, "congest", 64, Ledger(),
                           faults={"drop": 0.5})
        with pytest.raises(ValueError, match="no-op"):
            FaultyTransport(topology, "congest", 64, Ledger(), FaultPlan())

    def test_drop_one_suppresses_delivery_but_records_rounds(self):
        net = faulty_network(small_graph(), {"drop": 1.0})
        assert by_edge(net, net.broadcast({0: 1, 1: 2})) == {}
        delivered = net.exchange({(u, v): 1 for u, v in net.graph.edges()})
        assert delivered == {}
        assert net.ledger.rounds == 2  # both rounds recorded, zero messages
        assert net.ledger.total_messages == 0
        stats = net.fault_stats
        assert stats["delivered_messages"] == 0
        assert stats["dropped_messages"] > 0

    def test_drop_rate_roughly_observed(self):
        graph = small_graph(60, 0.2, seed=4)
        net = faulty_network(graph, {"drop": 0.25}, seed=9)
        for _ in range(5):
            net.broadcast({v: 1 for v in graph.nodes()})
        stats = net.fault_stats
        total = stats["delivered_messages"] + stats["dropped_messages"]
        observed = stats["dropped_messages"] / total
        assert 0.15 < observed < 0.35

    def test_missing_entries_never_exceptions(self):
        graph = nx.path_graph(3)
        net = faulty_network(graph, {"drop": 1.0})
        delivered = net.exchange({(0, 1): "x"})
        assert delivered == {}  # absence, not an error
        # Protocol violations still raise exactly as without faults.
        with pytest.raises(ProtocolError):
            net.exchange({(0, 2): "not-an-edge"})

    def test_dropped_oversized_message_still_raises(self):
        # The fault seed must never decide whether a budget violation is
        # caught: even a message the plan removes re-runs the clean
        # transport's checks (except in the chunked primitives, where
        # oversized payloads legitimately stream over several rounds).
        graph = nx.path_graph(3)
        net = faulty_network(graph, {"drop": 1.0}, bandwidth_bits=8)
        with pytest.raises(BandwidthExceeded):
            net.exchange({(0, 1): Message(content=0, bits=10_000)})
        delivered = net.exchange_chunked(
            {(0, 1): Message(content=0, bits=10_000)})
        assert delivered == {}  # dropped, but legal for the chunked path
        crashed = faulty_network(graph, {"crash": {0: (0,)}}, bandwidth_bits=8)
        with pytest.raises(BandwidthExceeded):
            crashed.exchange({(0, 1): Message(content=0, bits=10_000)})

    def test_corruption_alters_payloads_not_counts(self):
        graph = small_graph(40, 0.25, seed=2)
        clean = Network(graph)
        noisy = faulty_network(graph, {"corrupt": 0.5}, seed=3)
        values = {v: 0b1111111111 for v in graph.nodes()}
        clean_in = by_edge(clean, clean.broadcast(values))
        noisy_in = by_edge(noisy, noisy.broadcast(values))
        # Same senders deliver to the same receivers...
        assert clean_in.keys() == noisy_in.keys()
        # ...but many payloads changed.
        assert noisy.fault_stats["corrupted_messages"] > 0
        changed = sum(1 for edge, payload in noisy_in.items()
                      if payload != clean_in[edge])
        assert changed == noisy.fault_stats["corrupted_messages"]

    def test_throttle_scales_budget_and_still_enforces_it(self):
        graph = nx.path_graph(4)
        net = faulty_network(graph, {"throttle": 0.5}, bandwidth_bits=64)
        assert net.bandwidth_bits == 32
        net.exchange({(0, 1): Message(content=0, bits=32, label="fits")})
        with pytest.raises(BandwidthExceeded):
            net.exchange({(0, 1): Message(content=0, bits=40, label="too-big")})

    def test_crash_silences_node_from_its_round_on(self):
        graph = nx.cycle_graph(5)
        net = faulty_network(graph, {"crash": {1: (0,)}})
        first = by_edge(net, net.broadcast({v: 1 for v in graph.nodes()}))  # round 0: alive
        assert (0, 1) in first
        second = by_edge(net, net.broadcast({v: 1 for v in graph.nodes()}))  # round 1: dead
        assert (0, 1) not in second and (0, 4) not in second
        assert not [edge for edge in second if edge[1] == 0]  # receives nothing either
        assert net.fault_stats["crashed_nodes"] == 1

    def test_delay_slots_shift_delivery(self):
        graph = nx.path_graph(4)
        net = faulty_network(graph, {"delay": {(0, 1): 2}})
        assert net.exchange({(0, 1): "late", (1, 2): "now"}) == {(1, 2): "now"}
        assert net.exchange({}) == {}
        assert net.exchange({}) == {(0, 1): "late"}
        # A busy edge defers the late message one more round, never clobbers.
        net2 = faulty_network(graph, {"delay": {(0, 1): 1}})
        net2.exchange({(0, 1): "first"})
        assert net2.exchange({(0, 1): "second"}) == {(0, 1): "first"}
        assert net2.exchange({}) == {(0, 1): "second"}

    def test_late_stream_waits_for_a_chunked_round(self):
        graph = nx.path_graph(4)
        net = faulty_network(graph, {"delay": {(0, 1): 1}})
        wide = Message(content="w", bits=3 * net.bandwidth_bits)
        assert net.exchange_chunked({(0, 1): wide}) == {}
        # Due now but wider than the budget: absent here, never an error.
        assert net.exchange({(1, 2): "x"}) == {(1, 2): "x"}
        assert net.exchange_chunked({}) == {(0, 1): "w"}
        assert [r.message_count for r in net.ledger.records] == [0, 1, 1, 1, 1]

    def test_broadcast_chunked_and_silent_rounds_under_faults(self):
        graph = nx.path_graph(4)
        net = faulty_network(graph, {"drop": 1.0}, mode="local")
        assert by_edge(net, net.broadcast_chunked({0: "x" * 100})) == {}
        net.charge_silent_round()
        assert net.ledger.rounds == 2


class TestLiveFaultDecisions:
    """A live faulted round removes and perturbs exactly the edges the scalar
    decision formula ``mix64(master, round, sender, receiver, salt)`` picks,
    whichever backend the fault layer wraps."""

    @staticmethod
    def _round(backend, faults):
        graph = nx.random_geometric_graph(40, 0.35, seed=9)
        net = Network(graph, backend=backend, faults=faults, fault_seed=21)
        messages = {}
        for u, v in graph.edges():
            messages[(u, v)] = 1000 * u + v
            messages[(v, u)] = 1000 * v + u
        round_id = net.ledger.rounds
        return net, messages, round_id, net.exchange(messages, label="live")

    @staticmethod
    def _draw(net, round_id, edge, salt):
        sender, receiver = edge
        return mix64(net.transport._master, round_id, element_key(sender),
                     element_key(receiver), salt)

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_drops_follow_the_scalar_formula(self, backend):
        net, messages, round_id, delivered = self._round(backend, {"drop": 0.3})
        predicted = {edge for edge in messages
                     if to_unit(self._draw(net, round_id, edge, _DROP_SALT)) < 0.3}
        assert set(messages) - set(delivered) == predicted
        assert 0 < len(predicted) < len(messages)  # a non-degenerate draw
        assert net.fault_stats["dropped_messages"] == len(predicted)
        assert all(delivered[edge] == messages[edge] for edge in delivered)

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_corruptions_follow_the_scalar_formula(self, backend):
        net, messages, round_id, delivered = self._round(backend,
                                                         {"corrupt": 0.05})
        flipped = 0
        for edge, payload in messages.items():
            seed = self._draw(net, round_id, edge, _CORRUPT_SALT)
            expected, flips = corrupt_payload(payload, 0.05, seed)
            assert delivered[edge] == expected, edge
            flipped += bool(flips)
        assert 0 < flipped < len(messages)
        assert net.fault_stats["corrupted_messages"] == flipped


# --------------------------------------------------------------------------- #
# Determinism: the acceptance criteria of the subsystem
# --------------------------------------------------------------------------- #

FAULTS = {"drop": 0.05, "corrupt": 1e-3, "crash": {4: (7,)}, "throttle": 0.5}


class TestDeterminism:
    def test_ledger_and_outputs_identical_across_backends(self):
        graph = small_graph(40, 0.15, seed=6)
        runs = []
        for backend in ("dict", "columnar"):
            net = Network(graph, backend=backend, faults=FAULTS, fault_seed=5)
            deliveries = net.broadcast({v: v * 3 + 1 for v in graph.nodes()})
            runs.append((
                [dataclasses.astuple(r) for r in net.ledger.records],
                by_edge(net, deliveries),
                net.fault_stats,
            ))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("solver", ["d1c", "d1lc"])
    def test_solve_byte_identical_across_backends(self, solver):
        graph = small_graph(50, 0.12, seed=2)
        lists = degree_plus_one_lists(graph, seed=3)
        outcomes = []
        for backend in ("dict", "columnar"):
            if solver == "d1c":
                result = solve_d1c(graph, seed=1, backend=backend,
                                   faults=FAULTS, fault_seed=11)
            else:
                result = solve_d1lc(graph, lists, seed=1, backend=backend,
                                    faults=FAULTS, fault_seed=11)
            outcomes.append((result.coloring, result.rounds, result.total_bits,
                             result.max_edge_bits, result.fault_stats))
        assert outcomes[0] == outcomes[1]

    def test_same_seed_same_plan_reproduces(self):
        graph = small_graph(40, 0.15, seed=3)
        a = solve_d1c(graph, seed=1, faults=FAULTS, fault_seed=7)
        b = solve_d1c(graph, seed=1, faults=FAULTS, fault_seed=7)
        assert a.coloring == b.coloring and a.fault_stats == b.fault_stats

    def test_fault_seed_changes_perturbation_not_workload(self):
        graph = small_graph(40, 0.15, seed=3)
        a = solve_d1c(graph, seed=1, faults={"drop": 0.1}, fault_seed=7)
        b = solve_d1c(graph, seed=1, faults={"drop": 0.1}, fault_seed=8)
        assert a.fault_stats != b.fault_stats or a.coloring != b.coloring

    def test_clean_run_unaffected_by_fault_plumbing(self):
        graph = small_graph(40, 0.15, seed=3)
        plain = solve_d1c(graph, seed=1)
        threaded = solve_d1c(graph, seed=1, faults={}, fault_seed=99)
        assert plain.coloring == threaded.coloring
        assert plain.rounds == threaded.rounds
        assert plain.total_bits == threaded.total_bits
        assert threaded.fault_stats is None

    def test_all_default_plan_aggregates_like_a_clean_scenario(self):
        # The drop=0.0 endpoint of a sweep is byte-identical to no faults —
        # including at the artifact layer, so it gates against a clean
        # baseline instead of hard-failing on "fault plan changed".
        from repro.experiments import (
            ScenarioSpec, aggregate_suite, compare_summaries, run_scenarios,
        )

        clean = ScenarioSpec("endpoint", "gnp", "d1c",
                             family_params={"n": 30, "p": 0.15})
        endpoint = dataclasses.replace(clean, faults={"drop": 0.0})
        a = aggregate_suite(run_scenarios([clean], suite="tiny"))
        b = aggregate_suite(run_scenarios([endpoint], suite="tiny"))
        assert a == b
        assert compare_summaries(a, b) == []
