"""Tests for the CONGEST network simulator: rounds, bandwidth, errors."""

import networkx as nx
import pytest

from repro.congest import (
    BandwidthExceeded,
    Message,
    Network,
    ProtocolError,
    Topology,
    make_transport,
    payload_bits,
)
from repro.graphs import gnp_graph, ring_of_cliques
from repro.metrics.ledger import Ledger, comm_row_metrics


@pytest.fixture(params=["dict", "columnar"])
def backend(request) -> str:
    return request.param


@pytest.fixture
def square(backend) -> Network:
    return Network(nx.cycle_graph(4), bandwidth_bits=16, backend=backend)


class TestConstruction:
    def test_default_bandwidth_scales_with_log_n(self):
        small = Network(nx.path_graph(8))
        large = Network(nx.path_graph(1024))
        assert large.bandwidth_bits > small.bandwidth_bits

    def test_explicit_bandwidth(self):
        net = Network(nx.path_graph(4), bandwidth_bits=10)
        assert net.bandwidth_bits == 10

    def test_self_loops_rejected(self):
        g = nx.Graph()
        g.add_edge(1, 1)
        with pytest.raises(ProtocolError):
            Network(g)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Network(nx.path_graph(3), mode="weird")

    @pytest.mark.parametrize("bits", [0, -5])
    def test_budget_below_one_bit_rejected(self, backend, bits):
        # A zero budget would divide by zero in the first chunked round, and
        # a negative one would charge a chunked message negative bits.
        with pytest.raises(ValueError, match=f"got {bits}$"):
            Network(nx.path_graph(3), bandwidth_bits=bits, backend=backend)

    @pytest.mark.parametrize("faults", [None, {"drop": 0.1}, {"throttle": 0.5}],
                             ids=["clean", "drop", "throttle"])
    @pytest.mark.parametrize("bits", [0, -5])
    def test_make_transport_rejects_a_budget_below_one_bit(self, backend, bits,
                                                           faults):
        # Checked before the throttle, which would clamp the budget to 1.
        message = f"^bandwidth_bits must be at least 1, got {bits}$"
        with pytest.raises(ValueError, match=message):
            make_transport(backend, Topology(nx.path_graph(3)), "congest", bits,
                           Ledger(), faults=faults)

    def test_views(self, square):
        assert square.number_of_nodes == 4
        assert square.degree(0) == 2
        assert square.max_degree() == 2

    def test_neighbors_of_missing_node(self, square):
        with pytest.raises(ProtocolError):
            square.neighbors("nope")


class TestExchange:
    def test_delivery_and_round_count(self, square):
        delivered = square.exchange({(0, 1): 5, (1, 0): 7})
        assert delivered == {(0, 1): 5, (1, 0): 7}
        assert square.rounds_used == 1

    def test_each_exchange_is_one_round(self, square):
        square.exchange({(0, 1): 1})
        square.exchange({(1, 2): 1})
        square.exchange({})
        assert square.rounds_used == 3

    def test_non_edge_rejected(self, square):
        with pytest.raises(ProtocolError):
            square.exchange({(0, 2): 1})

    def test_self_message_rejected(self, square):
        with pytest.raises(ProtocolError):
            square.exchange({(0, 0): 1})

    def test_bandwidth_enforced(self, square):
        big = Message(content="x", bits=17)
        with pytest.raises(BandwidthExceeded):
            square.exchange({(0, 1): big})

    def test_bandwidth_not_enforced_in_local_mode(self):
        net = Network(nx.path_graph(4), mode="local", bandwidth_bits=4)
        delivered = net.exchange({(0, 1): Message(content="big", bits=10_000)})
        assert delivered[(0, 1)] == "big"

    def test_message_unwrapped_on_delivery(self, square):
        delivered = square.exchange({(0, 1): Message(content=("a", "b"), bits=4)})
        assert delivered[(0, 1)] == ("a", "b")

    def test_ledger_totals(self, square):
        square.exchange({(0, 1): Message(content=1, bits=5), (2, 3): Message(content=1, bits=7)})
        assert square.ledger.total_bits == 12
        assert square.ledger.max_edge_bits == 7
        assert square.ledger.total_messages == 2


class TestBroadcast:
    def test_reaches_all_neighbors(self, square):
        inbox = square.broadcast({0: 42})
        assert inbox[1][0] == 42
        assert inbox[3][0] == 42
        assert inbox[2] == {}

    def test_broadcast_is_one_round(self, square):
        square.broadcast({0: 1, 1: 2, 2: 3})
        assert square.rounds_used == 1

    @pytest.mark.parametrize("graph", [
        nx.union(nx.star_graph(5), nx.empty_graph(range(6, 9))),
        ring_of_cliques(3, 4),
        gnp_graph(40, 0.15, seed=5),
    ], ids=["star-plus-isolated", "ring-of-cliques", "gnp"])
    def test_every_node_hears_exactly_its_neighbors(self, graph, backend):
        net = Network(graph, bandwidth_bits=64, backend=backend)
        inbox = net.broadcast({v: ("from", v) for v in graph.nodes()})
        assert set(inbox) == set(graph.nodes())
        for v in graph.nodes():
            assert dict(inbox[v]) == {u: ("from", u) for u in graph.neighbors(v)}
        assert net.rounds_used == 1
        assert net.ledger.total_messages == 2 * graph.number_of_edges()


class TestChunkedExchange:
    def test_large_message_costs_multiple_rounds(self, backend):
        net = Network(nx.path_graph(3), bandwidth_bits=8, backend=backend)
        net.exchange_chunked({(0, 1): Message(content="big", bits=33)})
        assert net.rounds_used == 5  # ceil(33 / 8)

    def test_small_message_costs_one_round(self, backend):
        net = Network(nx.path_graph(3), bandwidth_bits=8, backend=backend)
        net.exchange_chunked({(0, 1): Message(content="ok", bits=8)})
        assert net.rounds_used == 1

    def test_local_mode_single_round(self, backend):
        net = Network(nx.path_graph(3), mode="local", bandwidth_bits=8, backend=backend)
        net.exchange_chunked({(0, 1): Message(content="big", bits=1000)})
        assert net.rounds_used == 1

    def test_empty_still_charges_a_round(self, backend):
        net = Network(nx.path_graph(3), bandwidth_bits=8, backend=backend)
        net.exchange_chunked({})
        assert net.rounds_used == 1

    def test_parallel_streams_share_rounds(self, backend):
        net = Network(nx.cycle_graph(4), bandwidth_bits=8, backend=backend)
        net.exchange_chunked({
            (0, 1): Message(content="a", bits=24),
            (2, 3): Message(content="b", bits=16),
        })
        assert net.rounds_used == 3  # dominated by the 24-bit message

    def test_total_bits_preserved(self, backend):
        net = Network(nx.path_graph(3), bandwidth_bits=8, backend=backend)
        net.exchange_chunked({(0, 1): Message(content="a", bits=20)})
        assert net.ledger.total_bits == 20

    def test_non_edge_rejected(self, backend):
        net = Network(nx.path_graph(4), bandwidth_bits=8, backend=backend)
        with pytest.raises(ProtocolError):
            net.exchange_chunked({(0, 3): Message(content="a", bits=4)})

    def test_broadcast_chunked(self, backend):
        net = Network(nx.star_graph(3), bandwidth_bits=8, backend=backend)
        inbox = net.broadcast_chunked({0: Message(content="hub", bits=20)})
        assert all(inbox[leaf][0] == "hub" for leaf in (1, 2, 3))
        assert net.rounds_used == 3


class TestSilentRoundsAndSummary:
    def test_silent_round_advances_counter(self, square):
        square.charge_silent_round()
        assert square.rounds_used == 1
        assert square.ledger.total_bits == 0

    def test_summary_fields(self, square):
        # The per-trial comm columns the suite runner reads off a network.
        square.exchange({(0, 1): Message(content=1, bits=6),
                         (1, 2): Message(content=2, bits=4)}, label="acd:probe")
        square.exchange({(2, 3): Message(content=3, bits=3)}, label="")
        assert comm_row_metrics(square) == {
            "total_messages": 3,
            "bits_per_node": 3.25,
            "phase_bits_acd": 10,
            "phase_bits_unlabeled": 3,
            "phase_messages_acd": 2,
            "phase_messages_unlabeled": 1,
        }

    def test_rounds_by_label(self, square):
        square.exchange({(0, 1): 1}, label="phase-a")
        square.exchange({(0, 1): 1}, label="phase-a")
        square.exchange({(0, 1): 1}, label="phase-b")
        counts = square.ledger.rounds_by_label()
        assert counts == {"phase-a": 2, "phase-b": 1}


class TestPayloadBits:
    def test_primitives(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1
        assert payload_bits(0) == 1
        assert payload_bits(255) == 8
        assert payload_bits(1.5) == 64

    def test_string(self):
        assert payload_bits("ab") == 16

    def test_collections(self):
        assert payload_bits([1, 1]) > 2  # includes a length header
        assert payload_bits((255, 255)) == payload_bits([255, 255])

    def test_message_overrides(self):
        assert payload_bits(Message(content=[1] * 1000, bits=3)) == 3

    def test_unknown_type_rejected(self):
        class Strange:
            pass

        with pytest.raises(TypeError):
            payload_bits(Strange())

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Message(content=1, bits=-1)


class TestChunkedLocalAccounting:
    """Regression: LOCAL-mode exchange_chunked must charge exactly one round
    with the true per-edge sizes — the same record exchange() would produce."""

    MESSAGES = {
        (0, 1): Message(content="a", bits=1000),
        (1, 2): Message(content="b", bits=3),
        (2, 3): Message(content="c", bits=0),
    }

    def test_local_chunked_matches_exchange_record(self, backend):
        chunked = Network(nx.path_graph(4), mode="local", bandwidth_bits=8, backend=backend)
        plain = Network(nx.path_graph(4), mode="local", bandwidth_bits=8, backend=backend)
        chunked.exchange_chunked(dict(self.MESSAGES), label="x")
        plain.exchange(dict(self.MESSAGES), label="x")
        assert chunked.ledger.records == plain.ledger.records

    def test_local_chunked_counts_every_message(self, backend):
        net = Network(nx.path_graph(4), mode="local", bandwidth_bits=8, backend=backend)
        net.exchange_chunked(dict(self.MESSAGES), label="x")
        assert net.ledger.rounds == 1
        assert net.ledger.total_messages == 3  # zero-bit messages count too
        assert net.ledger.total_bits == 1003
        assert net.ledger.max_edge_bits == 1000

    def test_congest_chunked_counts_zero_bit_message_once(self, backend):
        net = Network(nx.path_graph(4), bandwidth_bits=8, backend=backend)
        net.exchange_chunked(
            {(0, 1): Message(content="a", bits=16), (2, 3): Message(content="z", bits=0)},
            label="x",
        )
        assert net.ledger.rounds == 2
        # Round 1 carries both messages (the zero-bit one occupies its edge
        # exactly once); round 2 carries only the second chunk.
        assert [r.message_count for r in net.ledger.records] == [2, 1]
        assert net.ledger.total_bits == 16


class TestBackendSelection:
    def test_default_backend_is_columnar(self):
        assert Network(nx.path_graph(3)).backend == "columnar"

    def test_only_one_shard_accepted(self):
        assert Network(nx.path_graph(3), shards=1).backend == "columnar"
        with pytest.raises(ValueError, match="shards must be 1"):
            Network(nx.path_graph(3), shards=2)

    def test_backend_recorded_in_summary(self, backend):
        net = Network(nx.path_graph(3), backend=backend)
        assert net.backend == backend

    def test_transport_instance_rejected(self, backend):
        # Networks build their own transport from a backend name; a
        # pre-built instance is not a backend name.
        graph = nx.path_graph(3)
        built = Network(graph, backend=backend).transport
        with pytest.raises(ValueError, match="unknown transport backend"):
            Network(graph, backend=built)

    def test_message_subclass_unwrapped_on_both_backends(self, backend):
        class Tagged(Message):
            pass

        net = Network(nx.path_graph(3), bandwidth_bits=16, backend=backend)
        delivered = net.exchange({(0, 1): Tagged(content="payload", bits=4)})
        assert delivered[(0, 1)] == "payload"
        assert net.ledger.total_bits == 4
