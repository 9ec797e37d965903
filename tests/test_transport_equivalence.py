"""Cross-backend equivalence: the ``columnar`` fast path must match ``dict``.

The paper-fidelity contract (DESIGN.md) is that the transport backend is a
performance choice only: for the same inputs and seeds, both backends must
deliver the same payloads and charge byte-identical ledgers — same rounds,
labels, message counts, total bits and per-round maxima.  This suite checks
that contract at the primitive level and end-to-end on several graph
families, including small instances of the ``scale`` suite's families
(geometric, power-law, ring-of-cliques), and for small node programs driven
through ``Network.exchange`` rounds under every fault axis.
"""

import inspect
import time
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from repro.baselines import johansson_coloring
from repro.congest import BandwidthExceeded, CongestError, Message, Network, ProtocolError
from repro.congest.columnar.transport import ColumnarTransport
from repro.congest.transport import DictTransport
from repro.core import solve_d1c, solve_d1lc
from repro.experiments import get_suite, run_trial
from repro.faults.transport import FaultyTransport
from repro.graphs import (
    degree_plus_one_lists,
    gnp_fast_graph,
    gnp_graph,
    huge_color_space_lists,
    planted_almost_cliques,
    power_law_graph,
    random_geometric_graph,
    ring_of_cliques,
)
from repro.graphs.generators import triangle_rich_graph
from round_driver import by_edge, run_rounds

BACKENDS = ("dict", "columnar")
FAST_BACKENDS = ("columnar",)  # vs the "dict" reference


def ledger_tuple(network: Network):
    ledger = network.ledger
    return (ledger.rounds, ledger.total_bits, ledger.total_messages,
            ledger.max_edge_bits)


def assert_identical_ledgers(*networks: Network):
    reference = networks[0]
    for other in networks[1:]:
        assert ledger_tuple(other) == ledger_tuple(reference), other.backend
        assert other.ledger.records == reference.ledger.records, other.backend


def all_networks(graph, **kwargs):
    return tuple(Network(graph, backend=b, **kwargs) for b in BACKENDS)


class TestPrimitiveEquivalence:
    def test_exchange(self):
        for net in all_networks(nx.cycle_graph(6), bandwidth_bits=64):
            delivered = net.exchange(
                {(0, 1): 5, (1, 0): Message(content="x", bits=9), (2, 3): (1, 2)},
                label="t",
            )
            assert delivered[(1, 0)] == "x"
        nets = all_networks(nx.cycle_graph(6), bandwidth_bits=64)
        for net in nets:
            net.exchange({(0, 1): 5, (2, 3): [7, 8]}, label="t")
            net.exchange({}, label="empty")
        assert_identical_ledgers(*nets)

    def test_violating_exchange_raises_the_oracle_error(self):
        """A round with several violations fails at its first offending
        entry in iteration order, over budget or off-graph, on every backend,
        and is never recorded."""
        rounds = [
            {(0, 1): 20, (1, 2): 40},  # two payloads over budget
            {(0, 1): 40, (0, 2): 1},  # over budget, then a non-edge
        ]
        for sizes in rounds:
            raised = []
            for net in all_networks(nx.path_graph(3), bandwidth_bits=16):
                with pytest.raises(CongestError) as info:
                    net.exchange({edge: Message(content=bits, bits=bits)
                                  for edge, bits in sizes.items()}, label="v")
                raised.append((type(info.value), getattr(info.value, "edge", None)))
                assert net.ledger.rounds == 0
            assert raised == [(BandwidthExceeded, (0, 1))] * len(BACKENDS)

    def test_broadcast_deliveries_and_ledger(self):
        nets = all_networks(nx.star_graph(5), bandwidth_bits=64)
        delivered = [by_edge(net, net.broadcast({0: Message(content=3, bits=4), 1: 2},
                                                label="b"))
                     for net in nets]
        assert all(other == delivered[0] for other in delivered[1:])
        assert_identical_ledgers(*nets)

    @pytest.mark.parametrize("bits", [None, 12], ids=["payload-bits", "declared-bits"])
    def test_broadcast_delivers_the_per_edge_exchange(self, bits):
        """The (sender, receiver, payload) multiset and the record of the
        ``dict`` oracle's per-edge exchange of the same round, on every
        backend: with ``bits``, of ``Message(value, bits)``; without, of
        the payloads as given (one ``Message`` shared by every sender, raw
        int, str and tuple payloads, a zero-bit ``Message`` and an isolated
        sender over budget).  Isolated and silent nodes, non-int labels and
        equal values of different types included."""
        graph = nx.star_graph(4)
        graph.add_edge(3, "x")
        graph.add_node(("lonely",))
        if bits is None:
            shared = Message(content="same", bits=11)
            values = {0: shared, 1: shared, 2: 7, 3: (True, "t"), 4: "str",
                      "x": Message(content=(1, "t"), bits=0),
                      ("lonely",): Message(content="wide", bits=999)}
            as_sent = values
        else:
            values = {0: (1,), 3: (True,), ("lonely",): 5, "x": "s"}
            as_sent = {v: Message(content=value, bits=bits) for v, value in values.items()}
        reference = Network(graph, bandwidth_bits=64, backend="dict")
        exchanged = reference.exchange({(v, u): payload for v, payload in as_sent.items()
                                        for u in graph.neighbors(v)}, label="c")
        triples = sorted(((s, r, p) for (s, r), p in exchanged.items()), key=repr)
        for net in all_networks(graph, bandwidth_bits=64):
            deliveries = net.broadcast(values, label="c", bits=bits)
            got = sorted(zip(*deliveries.labelled(net.nodes)), key=repr)
            assert got == triples, net.backend
            # Equal values keep their own type: (True,) is not delivered as (1,).
            assert [type(p[0]) for s, _r, p in got if s in (0, 3)] == (
                [type(p[0]) for s, _r, p in triples if s in (0, 3)])
            assert net.ledger.records == reference.ledger.records, net.backend
            assert deliveries.receivers.dtype == deliveries.senders.dtype == np.int64
        for net in all_networks(graph, bandwidth_bits=64):
            empty = net.broadcast({}, label="none", bits=bits)
            assert (len(empty.receivers), len(empty.senders), empty.values) == (0, 0, [])
            assert net.ledger.records[-1].message_count == 0

    def test_broadcast_raises_the_oracle_errors(self):
        """An unknown sender raises the oracle's ProtocolError before any
        payload is sized, and a round over budget raises before it is
        recorded."""
        graph = nx.path_graph(3)
        for backend in BACKENDS:
            net = Network(graph, bandwidth_bits=8, backend=backend)
            with pytest.raises(ProtocolError, match="ghost"):
                net.broadcast({0: 1, "ghost": 1, "other": 2}, label="p", bits=3)
            with pytest.raises(ProtocolError, match="ghost"):
                net.broadcast({0: object(), "ghost": 1}, label="p")
            with pytest.raises(BandwidthExceeded) as info:
                net.broadcast({2: 1, 0: 1}, label="w", bits=9)
            assert info.value.edge == (2, 1)
            assert net.ledger.rounds == 0

    def test_exchange_chunked(self):
        msgs = {
            (0, 1): Message(content="long", bits=50),
            (1, 2): Message(content="short", bits=7),
            (2, 3): Message(content="empty", bits=0),
        }
        nets = all_networks(nx.path_graph(5), bandwidth_bits=8)
        for net in nets:
            delivered = net.exchange_chunked(msgs, label="c")
            assert delivered[(0, 1)] == "long"
        assert_identical_ledgers(*nets)

    def test_broadcast_chunked(self):
        nets = all_networks(nx.star_graph(4), bandwidth_bits=8)
        for net in nets:
            net.broadcast_chunked({0: Message(content="hub", bits=21)}, label="bc")
        assert_identical_ledgers(*nets)

    def test_silent_round(self):
        nets = all_networks(nx.path_graph(3))
        for net in nets:
            net.charge_silent_round(label="s")
        assert_identical_ledgers(*nets)

    def test_isolated_sender_contributes_no_messages(self):
        graph = nx.Graph()
        graph.add_edge(0, 1)
        graph.add_node(2)  # isolated
        nets = all_networks(graph, bandwidth_bits=64)
        for net in nets:
            deliveries = net.broadcast({2: Message(content="big", bits=999), 0: 1},
                                       label="b")
            assert by_edge(net, deliveries) == {(0, 1): 1}
        # The isolated sender's oversized payload is never charged (it has no
        # recipients), so max_edge_bits must not pick it up on any backend.
        assert_identical_ledgers(*nets)
        assert nets[0].ledger.max_edge_bits == 1


PRIMITIVES = ("exchange", "broadcast", "exchange_chunked", "broadcast_chunked",
              "charge_silent_round")


@pytest.mark.parametrize("cls", [ColumnarTransport, FaultyTransport],
                         ids=lambda cls: cls.__name__)
def test_primitives_keep_the_base_signature(cls):
    # Network calls every transport through the oracle's interface, so no
    # subclass may take a parameter the oracle lacks.
    for name in PRIMITIVES:
        assert (inspect.signature(getattr(cls, name))
                == inspect.signature(getattr(DictTransport, name))), name


@pytest.mark.parametrize("cls, overrides", [
    (ColumnarTransport, {"broadcast"}),
    (FaultyTransport, {"exchange", "exchange_chunked", "charge_silent_round"}),
], ids=["columnar", "faults"])
def test_each_transport_overrides_only_its_primitives(cls, overrides):
    # The columnar fast path forks only the broadcast; the fault transport
    # perturbs only the per-edge primitives, which the oracle's broadcasts
    # go through.  Neither adds a public method of its own.
    public = {name for name, value in vars(cls).items()
              if callable(value) and not name.startswith("_")}
    assert public == overrides


#: Small instances of every family the equivalence contract must hold on,
#: including the ``scale`` suite's families at test-sized n.
GRAPH_FAMILIES = {
    "gnp": lambda: gnp_graph(60, 0.12, seed=5),
    "planted-cliques": lambda: planted_almost_cliques(
        num_cliques=3, clique_size=12, num_sparse=8, seed=3
    ).graph,
    "triangle-rich": lambda: triangle_rich_graph(
        n=50, planted_cliques=2, clique_size=8, seed=7
    ).graph,
    "cycle": lambda: nx.cycle_graph(30),
    "geometric": lambda: random_geometric_graph(40, 0.25, seed=11),
    "power-law": lambda: power_law_graph(40, 3, seed=13),
    "ring-of-cliques": lambda: ring_of_cliques(4, 6),
}


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_d1c_identical_across_backends(self, family):
        graph = GRAPH_FAMILIES[family]()
        results = {
            backend: solve_d1c(graph, seed=11, backend=backend)
            for backend in BACKENDS
        }
        a = results["dict"]
        assert a.is_valid
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert a.rounds == b.rounds, backend
            assert a.total_bits == b.total_bits, backend
            assert a.max_edge_bits == b.max_edge_bits, backend
            assert a.rounds_by_phase == b.rounds_by_phase, backend
            assert b.is_valid, backend

    @pytest.mark.parametrize("family", ["gnp", "geometric", "ring-of-cliques"])
    def test_d1lc_identical_across_backends(self, family):
        graph = GRAPH_FAMILIES[family]()
        lists = degree_plus_one_lists(graph, seed=9)
        results = {
            backend: solve_d1lc(graph, lists, seed=4, backend=backend)
            for backend in BACKENDS
        }
        a = results["dict"]
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert (a.rounds, a.total_bits, a.max_edge_bits) == (
                b.rounds, b.total_bits, b.max_edge_bits
            ), backend

    def test_johansson_identical_across_backends(self):
        graph = gnp_graph(40, 0.2, seed=2)
        results = {
            backend: johansson_coloring(graph, seed=6, backend=backend)
            for backend in BACKENDS
        }
        a = results["dict"]
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert (a.rounds, a.total_bits) == (b.rounds, b.total_bits), backend

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_johansson_identical_on_every_family(self, family):
        graph = GRAPH_FAMILIES[family]()
        results = {
            backend: johansson_coloring(graph, seed=6, backend=backend)
            for backend in BACKENDS
        }
        a = results["dict"]
        assert a.is_valid
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert (a.rounds, a.total_bits, a.max_edge_bits) == (
                b.rounds, b.total_bits, b.max_edge_bits
            ), backend

    def test_node_program_identical_across_backends(self):
        nets = all_networks(nx.random_regular_graph(3, 12, seed=1))
        outputs = []
        for net in nets:
            program = FloodMin(net)
            run_rounds(net, program, seed=5)
            outputs.append(program.output)
        assert all(out == outputs[0] for out in outputs[1:])
        assert_identical_ledgers(*nets)

    def test_conformance_e16_trial_identical_across_backends(self):
        """E16: trial 0 of the conformance suite's n=240 D1LC point gives the
        same row on both backends, down to the coloring fingerprint."""
        (spec,) = [s for s in get_suite("conformance") if "e16" in s.tags]
        rows = {b: run_trial(replace(spec, backend=b, trials=1), 0) for b in BACKENDS}
        for key in ("valid", "rounds", "total_bits", "max_edge_bits",
                    "colors_used", "coloring_sha"):
            for backend in FAST_BACKENDS:
                assert rows[backend][key] == rows["dict"][key], (key, backend)


def test_columnar_primitives_at_most_1_5x_dict_wall_clock():
    """E16: 60 broadcast+exchange rounds on gnp(240, 10/240) charge identical
    ledgers, and the columnar backend takes at most 1.5x the dict time."""
    graph = gnp_graph(240, 10 / 240, seed=240)
    timings, ledgers = {}, {}
    for backend in BACKENDS:
        network = Network(graph, bandwidth_bits=256, backend=backend)
        payloads = {v: Message(content=v, bits=8, label="micro") for v in network.nodes}
        start = time.perf_counter()
        for _ in range(60):
            network.broadcast(payloads, label="micro:bcast")
            network.exchange(
                {(u, v): Message(content=1, bits=4, label="m")
                 for u in network.nodes for v in network.neighbors(u)},
                label="micro:exch",
            )
        timings[backend] = time.perf_counter() - start
        ledgers[backend] = (network.ledger.rounds, network.ledger.total_bits,
                            network.ledger.max_edge_bits)
    assert all(ledgers[b] == ledgers["dict"] for b in FAST_BACKENDS)
    assert round(timings["columnar"], 3) <= round(timings["dict"], 3) * 1.5


#: Fault plans the equivalence matrix runs under; the fault-free plan is the
#: existing end-to-end tests above.  Any plan builds the fault transport, the
#: ``dict`` oracle under the plan, whichever backend is named, so the matrix
#: pins that ``backend=`` has no effect on a faulted run.
FAULT_PLANS = {
    "drop": {"drop": 0.05},
    "corrupt": {"corrupt": 1e-3},
    "crash": {"crash": {3: (5,), 7: (9,)}},
}


class TestFaultedEquivalence:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_faulted_d1c_identical_across_backends(self, family, plan):
        graph = GRAPH_FAMILIES[family]()
        results = {
            backend: solve_d1c(graph, seed=11, backend=backend,
                               faults=FAULT_PLANS[plan], fault_seed=13)
            for backend in BACKENDS
        }
        a = results["dict"]
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert (a.rounds, a.total_bits, a.max_edge_bits) == (
                b.rounds, b.total_bits, b.max_edge_bits
            ), backend
            assert a.fault_stats == b.fault_stats, backend

    @pytest.mark.parametrize("family", ["gnp", "geometric", "ring-of-cliques"])
    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_faulted_d1lc_identical_across_backends(self, family, plan):
        graph = GRAPH_FAMILIES[family]()
        lists = degree_plus_one_lists(graph, seed=9)
        results = {
            backend: solve_d1lc(graph, lists, seed=4, backend=backend,
                                faults=FAULT_PLANS[plan], fault_seed=13)
            for backend in BACKENDS
        }
        a = results["dict"]
        for backend in FAST_BACKENDS:
            b = results[backend]
            assert a.coloring == b.coloring, backend
            assert (a.rounds, a.total_bits, a.max_edge_bits) == (
                b.rounds, b.total_bits, b.max_edge_bits
            ), backend
            assert a.fault_stats == b.fault_stats, backend


#: Plans for the hashed-color matrix: fault-free and each axis that reshapes
#: what a color round delivers.
HASHED_FAULT_PLANS = {
    "none": lambda graph: None,
    "drop": lambda graph: {"drop": 0.05},
    "corrupt": lambda graph: {"corrupt": 1e-3},
    "delay": lambda graph: {"delay": delayed_edges(graph)},
}


def solve_on_recorded_network(monkeypatch, *args, **kwargs):
    """``solve_d1lc(*args, **kwargs)`` and the network the solve ran on."""
    import repro.core.d1lc as d1lc_module

    built = []

    class RecordedNetwork(Network):
        def __init__(self, *net_args, **net_kwargs):
            super().__init__(*net_args, **net_kwargs)
            built.append(self)

    monkeypatch.setattr(d1lc_module, "Network", RecordedNetwork)
    result = solve_d1lc(*args, **kwargs)
    (network,) = built
    return result, network


class TestHashedColorEquivalence:
    """Colors wider than the budget (as in ``examples/frequency_assignment.py``)
    travel hashed, one message per receiver; both backends must agree."""

    @pytest.mark.parametrize("plan", sorted(HASHED_FAULT_PLANS))
    def test_hashed_d1lc_identical_across_backends(self, plan, monkeypatch):
        graph = gnp_graph(60, 0.12, seed=9)
        lists = huge_color_space_lists(graph, color_space_bits=400, seed=10)
        faults = HASHED_FAULT_PLANS[plan](graph)
        runs = {}
        for backend in BACKENDS:
            result, network = solve_on_recorded_network(
                monkeypatch, graph, lists, seed=4, backend=backend,
                faults=faults, fault_seed=13,
            )
            runs[backend] = (result.coloring, network.ledger.records,
                             result.fault_stats)
        reference = runs["dict"]
        assert "color-hash" in {r.label.split(":")[0] for r in reference[1]}
        assert any(r.label.endswith(":adopt") and r.message_count for r in reference[1])
        if faults is not None:
            assert reference[2] is not None
        for backend in FAST_BACKENDS:
            assert runs[backend][0] == reference[0], backend
            assert runs[backend][1] == reference[1], backend
            assert runs[backend][2] == reference[2], backend


# --------------------------------------------------------------------------- #
# Node programs over exchange rounds, fault-free and under every fault axis
# --------------------------------------------------------------------------- #

class Program:
    """A node program for ``run_rounds``; ``output`` holds per-node results."""

    def __init__(self, net):
        self.net, self.output = net, {}


class FloodMin(Program):
    """Flood the minimum id; a node halts once a round brings nothing new."""

    def __call__(self, v, r, inbox, rng):
        best = min([self.output.get(v, v), *inbox.values()])
        changed = r == 0 or best < self.output[v]
        self.output[v] = best
        if not changed:
            return {}, True
        return {u: best for u in self.net.neighbors(v)}, False


class RoundCappedFlood(Program):
    """Deterministic flood; every node halts in the same round."""

    def __call__(self, v, r, inbox, rng):
        best = self.output[v] = min([self.output.get(v, v), *inbox.values()])
        if r >= 6:
            return {}, True
        return {u: best for u in self.net.neighbors(v)}, False


class RandomGossip(Program):
    """Per-node randomness: every node's rng stream must advance identically."""

    def __call__(self, v, r, inbox, rng):
        trace = self.output.setdefault(v, [rng.randrange(1000)])
        trace.append(rng.randrange(1000) + sum(inbox.values()))
        if r >= 4:
            return {}, True
        return {u: trace[-1] % 7 for u in self.net.neighbors(v)}, False


class StaggeredHalt(Program):
    """Nodes halt at different rounds: later rounds run on a thinning active
    set while mail to already-halted receivers is still sent and charged."""

    def __call__(self, v, r, inbox, rng):
        if r >= v % 5:
            self.output[v] = ("done", len(inbox))
            return {}, True
        return {u: 1 for u in self.net.neighbors(v)}, False


PROGRAMS = {
    "flood": RoundCappedFlood,
    "gossip": RandomGossip,
    "staggered": StaggeredHalt,
}

PROGRAM_GRAPHS = {
    "gnp-fast": lambda: gnp_fast_graph(60, avg_degree=6.0, seed=3),
    "geometric": lambda: random_geometric_graph(60, 0.22, seed=5),
    "ring-of-cliques": lambda: ring_of_cliques(6, 6),
}


def delayed_edges(graph):
    """Both directions of the first six edges, late by one to three rounds."""
    return {(u, v): 1 + (u + 2 * v) % 3
            for a, b in sorted(graph.edges())[:6]
            for u, v in ((a, b), (b, a))}


#: Fault plans per graph (a delay plan names concrete edges).  Each maps to
#: the fault counter it must visibly move, so no axis passes vacuously;
#: delays move no counter and must reshape the ledger instead.
PROGRAM_FAULTS = {
    "none": (lambda graph: None, None),
    "drop": (lambda graph: {"drop": 0.15}, "dropped_messages"),
    "corrupt": (lambda graph: {"corrupt": 0.02}, "corrupted_messages"),
    "drop-corrupt": (lambda graph: {"drop": 0.1, "corrupt": 0.01},
                     "corrupted_messages"),
    "crash": (lambda graph: {"crash": {2: (5, 11)}}, "crashed_nodes"),
    "delay": (lambda graph: {"delay": delayed_edges(graph)}, None),
}


def run_program(graph, program_cls, backend, faults=None):
    """Drive ``program_cls`` to completion; return everything a run exposes."""
    net = Network(graph, backend=backend, faults=faults, fault_seed=13)
    program = program_cls(net)
    rounds, halted = run_rounds(net, program, seed=7)
    return {
        "rounds": rounds,
        "halted": halted,
        "outputs": program.output,
        "records": list(net.ledger.records),
        "fault_stats": net.fault_stats,
    }


class TestProgramEquivalence:
    @pytest.mark.parametrize("graph", sorted(PROGRAM_GRAPHS))
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("plan", sorted(PROGRAM_FAULTS))
    def test_program_identical_across_backends(self, plan, program, graph):
        graph = PROGRAM_GRAPHS[graph]()
        make_faults, counter = PROGRAM_FAULTS[plan]
        runs = {
            backend: run_program(graph, PROGRAMS[program], backend,
                                 faults=make_faults(graph))
            for backend in BACKENDS
        }
        reference = runs["dict"]
        assert reference["halted"] == set(graph)
        for backend in FAST_BACKENDS:
            assert runs[backend] == reference, backend
        if plan == "none":
            assert reference["fault_stats"] is None
        elif counter is not None:
            assert reference["fault_stats"][counter] > 0
        else:
            clean = run_program(graph, PROGRAMS[program], "dict")
            assert reference["records"] != clean["records"]

    def test_crashing_a_contiguous_slot_block(self):
        # A whole block of the topology's slot order crashes mid-run: every
        # message to or from the block is suppressed, identically on both
        # backends.
        graph = ring_of_cliques(6, 6)
        block = tuple(Network(graph).topology.nodes[:9])
        faults = {"crash": {2: block}}
        runs = [run_program(graph, RoundCappedFlood, backend, faults=faults)
                for backend in BACKENDS]
        assert runs[0] == runs[1]
        assert runs[0]["fault_stats"]["crashed_nodes"] == len(block)
        assert runs[0]["rounds"] == 7

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_protocol_error_propagates(self, backend):
        def sends_off_graph(v, r, inbox, rng):
            return {"no-such-node": 1}, False

        net = Network(ring_of_cliques(4, 5), backend=backend)
        with pytest.raises(ProtocolError):
            run_rounds(net, sends_off_graph)
        assert net.ledger.rounds == 0  # the violating round is never recorded

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bandwidth_exceeded_propagates(self, backend):
        net = Network(ring_of_cliques(4, 5), backend=backend)

        def too_chatty(v, r, inbox, rng):
            return {u: tuple(range(4096)) for u in net.neighbors(v)}, False

        with pytest.raises(BandwidthExceeded):
            run_rounds(net, too_chatty)
        assert net.ledger.rounds == 0


def _run_with_ledger(surface, graph, ledger):
    """One run passing ``ledger=``: the network's ledger, or the solve's result."""
    if surface == "Network":
        net = Network(graph, ledger=ledger)
        run_rounds(net, lambda v, r, inbox, rng: (
            {u: r for u in net.neighbors(v)}, r >= 2))
        return ledger_tuple(net), net.ledger.records
    if surface == "solve_d1c":
        return solve_d1c(graph, seed=3, ledger=ledger)
    return solve_d1lc(graph, degree_plus_one_lists(graph, seed=3), seed=3,
                      ledger=ledger)


COMPAT_SURFACES = ("Network", "solve_d1c", "solve_d1lc")


class TestLedgerBackends:
    """``ledger=`` survives on three surfaces for old callers; it selects nothing."""

    @pytest.mark.parametrize("surface", COMPAT_SURFACES)
    def test_counters_match_records(self, surface):
        graph = gnp_graph(40, 0.15, seed=8)
        runs = [_run_with_ledger(surface, graph, ledger)
                for ledger in (None, "records", "counters")]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("surface", COMPAT_SURFACES)
    def test_unknown_ledger_kind_rejected(self, surface):
        with pytest.raises(ValueError, match="unknown ledger 'weird'"):
            _run_with_ledger(surface, nx.path_graph(3), "weird")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Network(nx.path_graph(3), backend="weird")


class TestChunkedAccountingOracle:
    """Independent oracle: the arithmetic chunked accounting shared by all
    backends must match a literal chunk-by-chunk simulation of the streams
    (the pre-refactor implementation), so a bug in the arithmetic cannot
    hide behind cross-backend agreement."""

    @staticmethod
    def simulate_rounds(sizes, budget):
        """Literal simulation: every still-streaming edge sends one
        budget-sized chunk per round (zero-bit messages occupy round 1)."""
        remaining = dict(sizes)
        records = []
        total_rounds = max(
            [1] + [-(-bits // budget) for bits in sizes.values() if bits > 0]
        )
        for r in range(total_rounds):
            count = bits_sum = max_bits = 0
            for edge, left in remaining.items():
                if left <= 0 and r > 0:
                    continue
                sent = min(left, budget)
                remaining[edge] = left - sent
                count += 1
                bits_sum += sent
                max_bits = max(max_bits, sent)
            records.append((count, bits_sum, max_bits))
        return records

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trial", range(20))
    def test_matches_literal_simulation(self, backend, trial):
        import random

        rng = random.Random(trial)
        budget = rng.choice([1, 3, 8, 17])
        graph = nx.cycle_graph(8)
        edges = [(v, (v + 1) % 8) for v in range(8)]
        sizes = {e: rng.choice([0, 1, budget - 1, budget, budget + 1,
                                3 * budget, rng.randrange(0, 6 * budget + 1)])
                 for e in rng.sample(edges, rng.randrange(1, len(edges) + 1))}
        net = Network(graph, bandwidth_bits=budget, backend=backend)
        net.exchange_chunked(
            {e: Message(content="x", bits=b) for e, b in sizes.items()}, label="o"
        )
        got = [(r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == self.simulate_rounds(sizes, budget)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trial", range(20))
    def test_broadcast_matches_literal_simulation(self, backend, trial):
        import random

        rng = random.Random(1000 + trial)
        budget = rng.choice([1, 3, 8, 17])
        graph = nx.wheel_graph(9)  # hub of degree 8, rim nodes of degree 3
        senders = rng.sample(sorted(graph.nodes()), rng.randrange(1, 10))
        bits = {v: rng.choice([0, 1, budget - 1, budget, budget + 1,
                               3 * budget, rng.randrange(0, 6 * budget + 1)])
                for v in senders}
        net = Network(graph, bandwidth_bits=budget, backend=backend)
        deliveries = net.broadcast_chunked(
            {v: Message(content=v, bits=b) for v, b in bits.items()}, label="o"
        )
        # Every sender streams its payload down each incident edge.
        sizes = {(v, u): b for v, b in bits.items() for u in graph.neighbors(v)}
        got = [(r.message_count, r.total_bits, r.max_edge_bits)
               for r in net.ledger.records]
        assert got == self.simulate_rounds(sizes, budget)
        assert by_edge(net, deliveries) == {
            (v, u): v for v in bits for u in graph.neighbors(v)
        }


class TestSlotSizingCacheInvalidation:
    """Every round charges each payload its current ``payload_bits``.

    A program that mutates a payload object and re-sends it next round is
    charged the *new* size, and a fresh object that lands on a previous
    round's ``id()`` is charged its own size: no size outlives its round.
    """

    def test_mutated_payload_resized_next_round(self):
        graph = nx.path_graph(3)
        net = Network(graph, mode="local", backend="columnar")
        payload = [1, 1]
        net.exchange({(0, 1): payload}, label="r0")
        first_bits = net.ledger.records[-1].total_bits
        payload.extend([1, 1, 1, 1])  # same object, bigger payload
        net.exchange({(0, 1): payload}, label="r1")
        second_bits = net.ledger.records[-1].total_bits
        from repro.congest.bandwidth import payload_bits

        assert first_bits != second_bits
        assert second_bits == payload_bits(payload)

    def test_recycled_id_cannot_reuse_stale_size(self):
        # A fresh object that happens to land on a previous round's id()
        # must be re-sized.  Force the scenario deterministically: send one
        # object, drop it, and keep sending new objects until the allocator
        # recycles the address — every delivery must charge the true size.
        graph = nx.path_graph(3)
        net = Network(graph, mode="local", backend="columnar")
        from repro.congest.bandwidth import payload_bits

        stale = [255] * 4
        stale_id = id(stale)
        net.exchange({(0, 1): stale}, label="warm")
        assert net.ledger.records[-1].total_bits == payload_bits(stale)
        del stale
        for trial in range(64):
            probe = [1]  # 9 bits, much smaller than the 40-bit warm payload
            net.exchange({(0, 1): probe}, label=f"probe{trial}")
            assert net.ledger.records[-1].total_bits == payload_bits(probe)
            if id(probe) == stale_id:
                break  # the recycled-address case was genuinely exercised

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_broadcast_resizes_mutated_payload_every_round(self, backend):
        graph = ring_of_cliques(3, 4)
        net = Network(graph, mode="local", backend=backend)
        payload = {"colors": [1, 2]}
        sender = next(iter(graph.nodes()))
        net.broadcast({sender: payload}, label="r0")
        before = net.ledger.records[-1].max_edge_bits
        payload["colors"].extend(range(16))
        net.broadcast({sender: payload}, label="r1")
        after = net.ledger.records[-1].max_edge_bits
        from repro.congest.bandwidth import payload_bits

        assert after > before
        assert after == payload_bits(payload)
