"""Tests for the immutable Topology layer (CSR adjacency, node index)."""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.congest.topology as topology_module
from repro.congest import Network, ProtocolError, Topology
from repro.graphs import gnp_graph, random_geometric_graph, ring_of_cliques
from topology_checks import reference_topology


@pytest.fixture
def topo() -> Topology:
    g = nx.Graph()
    g.add_edges_from([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    return Topology(g)


def csr_row(topo: Topology, i: int) -> list:
    """The neighbor indices of node index ``i``, as the transports read them."""
    return list(topo.indices[topo.indptr[i]:topo.indptr[i + 1]])


def labelled_with_isolated_nodes() -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(["z", "lonely", "a"])
    g.add_edges_from([("z", "a"), ("a", "m"), ("m", "z"), ("m", "q")])
    g.add_node("also-lonely")
    return g


GRAPH_FAMILIES = {
    "path": lambda: nx.path_graph(7),
    "star": lambda: nx.star_graph(8),
    "complete": lambda: nx.complete_graph(6),
    "ring-of-cliques": lambda: ring_of_cliques(4, 5),
    "gnp": lambda: gnp_graph(60, 0.1, seed=1),
    "geometric": lambda: random_geometric_graph(50, 0.25, seed=2),
    "labelled-with-isolated-nodes": labelled_with_isolated_nodes,
}


class TestViews:
    def test_nodes_cached_and_stable(self, topo):
        assert topo.nodes is topo.nodes  # no rebuild per access
        assert set(topo.nodes) == {"a", "b", "c", "d"}

    def test_counts(self, topo):
        assert topo.number_of_nodes == 4
        assert topo.number_of_edges == 4

    def test_neighbors_and_degrees(self, topo):
        assert topo.neighbors("c") == frozenset({"a", "b", "d"})
        assert topo.degree("c") == 3
        assert topo.degree("d") == 1
        assert topo.max_degree() == 3

    def test_are_adjacent(self, topo):
        index = topo.node_index
        assert index["b"] in csr_row(topo, index["a"])
        assert index["d"] not in csr_row(topo, index["a"])

    def test_missing_node_raises(self, topo):
        with pytest.raises(ProtocolError):
            topo.neighbors("nope")
        with pytest.raises(ProtocolError):
            topo.degree("nope")

    def test_self_loops_rejected(self):
        g = nx.Graph()
        g.add_edge(1, 1)
        with pytest.raises(ProtocolError):
            Topology(g)


    def test_edges_iterates_each_edge_once(self, topo):
        edges = [frozenset({topo.nodes[i], topo.nodes[j]})
                 for i in range(topo.number_of_nodes)
                 for j in csr_row(topo, i) if i < j]
        assert len(edges) == topo.number_of_edges
        assert set(edges) == {
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"c", "a"}),
            frozenset({"c", "d"}),
        }


class TestNodeIndex:
    def test_index_roundtrip(self, topo):
        for v in topo.nodes:
            assert topo.nodes[topo.node_index[v]] == v

    def test_index_is_contiguous(self, topo):
        assert sorted(topo.node_index.values()) == [0, 1, 2, 3]

    def test_csr_arrays_consistent(self, topo):
        assert len(topo.indptr) == topo.number_of_nodes + 1
        assert len(topo.indices) == 2 * topo.number_of_edges
        for v in topo.nodes:
            i = topo.node_index[v]
            csr_slice = topo.indices[topo.indptr[i]:topo.indptr[i + 1]]
            assert {topo.nodes[j] for j in csr_slice} == set(topo.neighbors(v))

    def test_empty_graph(self):
        topo = Topology(nx.Graph())
        assert topo.nodes == ()
        assert topo.max_degree() == 0
        assert topo.number_of_edges == 0


@pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
class TestCsrInvariants:
    def test_rows_sorted_loop_free_and_symmetric(self, family):
        topo = Topology(GRAPH_FAMILIES[family]())
        for i in range(topo.number_of_nodes):
            row = csr_row(topo, i)
            assert row == sorted(set(row)) and i not in row
            for j in row:
                assert i in csr_row(topo, j)

    def test_rows_match_graph_order_and_neighbor_sets(self, family):
        graph = GRAPH_FAMILIES[family]()
        topo = Topology(graph)
        assert topo.nodes == tuple(graph.nodes())
        assert len(topo.indptr) == graph.number_of_nodes() + 1
        assert topo.number_of_edges == graph.number_of_edges()
        for i, v in enumerate(topo.nodes):
            row = csr_row(topo, i)
            assert len(row) == topo.degree(v) == graph.degree(v)
            assert {topo.nodes[j] for j in row} == topo.neighbors(v)
        assert topo.max_degree() == max(dict(graph.degree()).values())


#: Labels by node position; "given" keeps the family's own labels.
RELABEL = {
    "given": None,
    # At or above a set's table size, int hashes collide modulo it.
    "big-int": lambda i: 1024 * i + 7,
    "str": lambda i: f"n{i}",
    "tuple": lambda i: (i % 3, str(i)),
}


def variant(family: str, labels: str, shuffled: bool) -> nx.Graph:
    """A family's graph relabelled, its nodes and edges reinserted in a
    shuffled order when asked."""
    graph = GRAPH_FAMILIES[family]()
    if RELABEL[labels] is not None:
        graph = nx.relabel_nodes(graph, {v: RELABEL[labels](i) for i, v in enumerate(graph)})
    if not shuffled:
        return graph
    rng = random.Random(f"{family}-{labels}")
    nodes, edges = list(graph), list(graph.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    out = nx.Graph()
    out.add_nodes_from(nodes)
    out.add_edges_from((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges)
    return out


class TestAgainstThePerNodeConstructor:
    """The numpy constructor against the per-node one it replaced
    (``tests/topology_checks.py``)."""

    @pytest.mark.parametrize("shuffled", [False, True], ids=["inserted", "shuffled"])
    @pytest.mark.parametrize("labels", list(RELABEL))
    @pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
    def test_same_arrays_degrees_and_set_order(self, family, labels, shuffled):
        graph = variant(family, labels, shuffled)
        want = reference_topology(graph)
        topo = Topology(graph)
        assert topo.nodes == want.nodes and topo.node_index == want.node_index
        for got, ref in ((topo.indptr, want.indptr), (topo.indices, want.indices)):
            assert got.dtype == np.int64 and np.array_equal(got, ref)
        assert topo.number_of_edges == want.number_of_edges
        assert topo.max_degree() == want.max_degree
        assert {v: topo.degree(v) for v in topo.nodes} == want.degrees
        for v in topo.nodes:
            # Iteration order, not only membership: readers iterate the set.
            assert list(topo.neighbors(v)) == list(frozenset(graph.neighbors(v)))
            assert list(topo.neighbors(v)) == list(want.neighbor_sets[v])

    def test_construction_builds_no_set_and_sorts_no_row(self, monkeypatch):
        built, sorted_rows = [], []
        monkeypatch.setattr(topology_module, "frozenset",
                            lambda items: built.append(1) or frozenset(items), raising=False)
        monkeypatch.setattr(topology_module, "sorted",
                            lambda *a, **k: sorted_rows.append(1) or sorted(*a, **k),
                            raising=False)
        topo = Topology(variant("gnp", "str", True))
        assert built == [] and sorted_rows == []
        v = topo.nodes[3]
        assert topo.neighbors(v) is topo.neighbors(v)  # built once, then cached
        assert built == [1]

    @pytest.mark.parametrize("labels", ["big-int", "str"])
    @pytest.mark.parametrize("at", [0, 5, 9])
    def test_self_loops_raise_the_canonical_error(self, labels, at):
        label = RELABEL[labels]
        graph = nx.relabel_nodes(nx.path_graph(10), label)
        graph.add_edge(label(at), label(at))
        message = "self-loops are not allowed in a CONGEST network"
        with pytest.raises(ProtocolError, match=message):
            reference_topology(graph)
        with pytest.raises(ProtocolError, match=message):
            Topology(graph)

    def test_unknown_nodes_raise_the_canonical_error(self):
        topo = Topology(variant("path", "str", False))
        for lookup in (topo.neighbors, topo.degree):
            with pytest.raises(ProtocolError, match="node 'nope' is not in the network"):
                lookup("nope")
        assert topo.neighbors("n1") == {"n0", "n2"}


def reference_neighbor_counts(graph: nx.Graph, nodes, members) -> list:
    """The per-node generator sum :meth:`Topology.neighbor_counts` replaces."""
    return [sum(1 for u in graph.neighbors(v) if u in members) for v in nodes]


class TestNeighborCounts:
    @pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_generator_sum(self, family, data):
        graph = GRAPH_FAMILIES[family]()
        topo = Topology(graph)
        everyone = list(graph.nodes())
        # Repeated and reordered query nodes; any member set, empty included.
        nodes = data.draw(st.lists(st.sampled_from(everyone), max_size=2 * len(everyone)))
        members = data.draw(st.sets(st.sampled_from(everyone)))
        expected = reference_neighbor_counts(graph, nodes, members)
        counts = topo.neighbor_counts(nodes, members)
        assert counts.dtype == np.int64 and counts.tolist() == expected
        mask = np.array([v in members for v in topo.nodes], dtype=bool)
        assert topo.neighbor_counts(nodes, mask).tolist() == expected

    def test_empty_member_set_and_isolated_nodes(self):
        graph = labelled_with_isolated_nodes()
        topo = Topology(graph)
        nodes = list(graph.nodes())
        assert topo.neighbor_counts(nodes, set()).tolist() == [0] * len(nodes)
        counts = dict(zip(nodes, topo.neighbor_counts(nodes, nodes).tolist()))
        assert counts["lonely"] == counts["also-lonely"] == 0
        assert counts == {v: graph.degree(v) for v in nodes}
        assert topo.neighbor_counts([], nodes).tolist() == []
        assert topo.neighbor_counts(["lonely"], ["lonely", "z"]).tolist() == [0]

    def test_non_int_labels(self):
        graph = nx.Graph([(("t", 1), "s"), ("s", 2.5), (2.5, ("t", 1)), ("s", frozenset({1}))])
        topo = Topology(graph)
        nodes = list(graph.nodes())
        members = {("t", 1), frozenset({1})}
        assert (topo.neighbor_counts(nodes, members).tolist()
                == reference_neighbor_counts(graph, nodes, members) == [0, 2, 1, 0])

    def test_empty_graph(self):
        assert Topology(nx.Graph()).neighbor_counts([], set()).tolist() == []


class TestNetworkFacade:
    def test_network_exposes_topology(self):
        net = Network(nx.path_graph(5))
        assert net.topology.nodes == net.nodes
        assert net.number_of_edges == 4

    def test_network_nodes_is_cached(self):
        net = Network(nx.path_graph(5))
        assert net.nodes is net.nodes

    def test_network_index_helpers(self):
        net = Network(nx.path_graph(3))
        assert net.nodes[net.topology.node_index[2]] == 2
