"""Tests for the almost-clique decomposition (Section 4.2, Definition 6)."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.acd as acd_module
from repro.congest import Network
from repro.congest.topology import Topology
from repro.core import ColoringParameters
from repro.core.acd import _balanced_candidates, compute_acd
from repro.core.params import SPARSITY_EPS
from repro.graphs import planted_almost_cliques, validate_acd
from repro.graphs.generators import locally_sparse_graph
from acd_checks import acd_report_is_clean, friend_labels, reference_classification


class TestComputeACD:
    def test_partition_covers_active_nodes(self, planted_graph, small_params):
        net = Network(planted_graph)
        acd = compute_acd(net, small_params)
        covered = acd.sparse_nodes | acd.uneven_nodes | acd.dense_nodes
        assert covered == set(planted_graph.nodes())
        assert not (acd.sparse_nodes & acd.dense_nodes)
        assert not (acd.uneven_nodes & acd.dense_nodes)
        assert not (acd.sparse_nodes & acd.uneven_nodes)

    def test_planted_cliques_recovered(self, planted, small_params):
        net = Network(planted.graph)
        acd = compute_acd(net, small_params)
        assert len(acd.cliques) == len(planted.cliques)
        # Each detected clique is essentially one planted clique.
        for members in acd.cliques.values():
            best_overlap = max(
                len(members & truth) / max(len(members), 1) for truth in planted.cliques
            )
            assert best_overlap >= 0.8

    def test_sparse_graph_has_no_cliques(self, small_params):
        g = locally_sparse_graph(60, degree=6, seed=3)
        net = Network(g)
        acd = compute_acd(net, small_params)
        assert len(acd.cliques) == 0

    def test_clique_graph_is_one_clique(self, small_params):
        g = nx.complete_graph(20)
        net = Network(g)
        acd = compute_acd(net, small_params)
        assert len(acd.cliques) == 1
        assert len(acd.dense_nodes) == 20

    def test_definition6_properties_hold(self, planted_graph, small_params):
        net = Network(planted_graph)
        acd = compute_acd(net, small_params)
        report = validate_acd(
            planted_graph,
            sparse_nodes=acd.sparse_nodes,
            uneven_nodes=acd.uneven_nodes,
            almost_cliques=list(acd.cliques.values()),
            eps_sparse=SPARSITY_EPS,
            eps_clique=2 * small_params.acd_eps,
        )
        assert acd_report_is_clean(report), report

    def test_constant_rounds(self, planted_graph, small_params):
        net = Network(planted_graph)
        acd = compute_acd(net, small_params)
        # O(1) rounds: a fixed setup plus the chunked sigma-bit indicators.
        assert acd.rounds_used <= 60

    def test_bandwidth_respected(self, planted_graph, small_params):
        net = Network(planted_graph)
        compute_acd(net, small_params)
        assert net.ledger.max_edge_bits <= net.bandwidth_bits

    def test_active_subset_restriction(self, planted, small_params):
        net = Network(planted.graph)
        active = set(planted.cliques[0]) | set(planted.cliques[1])
        acd = compute_acd(net, small_params, active=active)
        covered = acd.sparse_nodes | acd.uneven_nodes | acd.dense_nodes
        assert covered == active

    def test_result_helpers(self, planted_graph, small_params):
        net = Network(planted_graph)
        acd = compute_acd(net, small_params)
        summary = acd.partition_summary()
        assert summary["dense"] == len(acd.dense_nodes)

    def test_deterministic_given_seed(self, planted_graph):
        params = ColoringParameters.small(seed=5)
        acd1 = compute_acd(Network(planted_graph), params)
        acd2 = compute_acd(Network(planted_graph), params)
        assert acd1.clique_of == acd2.clique_of
        assert acd1.sparse_nodes == acd2.sparse_nodes


class TestBalancedCandidates:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_csr_read_matches_the_edge_walk(self, data):
        n = data.draw(st.integers(min_value=0, max_value=14))
        labels = data.draw(st.permutations([f"v{i}" for i in range(n)]))
        graph = nx.Graph()
        graph.add_nodes_from(labels)  # index order is not label order
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[:i]]
        graph.add_edges_from(data.draw(st.lists(st.sampled_from(pairs), unique=True))
                             if pairs else [])
        active = set(data.draw(st.lists(st.sampled_from(labels), unique=True))
                     if labels else [])
        eps = data.draw(st.sampled_from([0.05, 0.2, 0.5]))
        topology = Topology(graph)
        members = np.zeros(n, dtype=bool)
        members[topology.index_array(list(active))] = True
        degree, candidates = _balanced_candidates(topology, members, eps)
        # Reference: the same selection by walking graph.edges().
        want_degrees = {v: sum(1 for u in graph[v] if u in active) for v in active}
        want = [
            (u, v) for u, v in graph.edges()
            if u in active and v in active
            and min(want_degrees[u], want_degrees[v])
            >= (1.0 - eps) * max(want_degrees[u], want_degrees[v])
        ]
        index = topology.node_index
        assert {v: int(degree[index[v]]) for v in active} == want_degrees
        assert not degree[~members].any()
        assert candidates.dtype == np.int64 and candidates.shape == (len(want), 2)
        assert (candidates[:, 0] < candidates[:, 1]).all()  # the CSR upper triangle
        nodes = topology.nodes
        assert {(nodes[u], nodes[v]) for u, v in candidates.tolist()} == set(want)


def _tie_star():
    """Node 0 of degree 15 whose unevenness is exactly ``SPARSITY_EPS·15``.

    Its neighbours 1, 2 and 3 have degrees 23, 31 and 47, so they add
    1/3 + 1/2 + 2/3 = 1.5; its twelve leaves add 0.  Inserted 2, 3, 1, the
    CSR row sums 1/2 + 2/3 + 1/3 = 1.4999999999999998, below the threshold
    1.5, while the set {1, ..., 15} iterates 1, 2, 3 and sums exactly 1.5.
    """
    graph = nx.Graph()
    graph.add_nodes_from([0, 2, 3, 1])
    graph.add_edges_from((0, leaf) for leaf in range(4, 16))
    label = 16
    for hub, degree in ((1, 23), (2, 31), (3, 47)):
        graph.add_edge(0, hub)
        graph.add_edges_from((hub, leaf) for leaf in range(label, label + degree - 1))
        label += degree - 1
    return graph


def _detached_members():
    """The 4-clique on 1..4, node 5 joined to 1, 2 and 3, node 0 to 4 and 5.

    With every candidate a friend, {1, ..., 5} is one component of size 5.
    Nodes 4 and 5 have three neighbours in it and (1 + 2ε)·3 < 5 at ε = 0.3,
    so the post-filter evicts both and keeps the triangle {1, 2, 3}.
    """
    return nx.Graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                     (5, 1), (5, 2), (5, 3), (0, 4), (0, 5)])


def _reference_buddies(graph, active, params, seed):
    """The reference buddy test on the dict oracle, from per-node sets and the
    candidate tuples of an edge walk (what ``compute_acd`` used to build)."""
    network = Network(graph, backend="dict")
    active = set(active)
    neighborhoods = {v: {u for u in graph[v] if u in active} for v in active}
    degrees = {v: len(neighborhoods[v]) for v in active}
    eps = params.acd_eps
    candidates = [
        (u, v) for u, v in graph.edges()
        if u in active and v in active
        and min(degrees[u], degrees[v]) >= (1.0 - eps) * max(degrees[u], degrees[v])
    ]
    test = (acd_module._uniform_buddy_edges if params.uniform
            else acd_module._similarity_buddy_edges)
    return test(network, neighborhoods, degrees, candidates, params, seed)


GRAPHS = {
    "empty": lambda draw: nx.empty_graph(0),
    "isolated": lambda draw: nx.empty_graph(draw(st.integers(1, 6))),
    "star": lambda draw: nx.star_graph(draw(st.integers(1, 12))),
    "clique": lambda draw: nx.complete_graph(draw(st.integers(2, 12))),
    "ring-of-cliques": lambda draw: nx.ring_of_cliques(draw(st.integers(2, 4)),
                                                       draw(st.integers(3, 8))),
    "disjoint-cliques": lambda draw: nx.disjoint_union_all(
        [nx.complete_graph(size) for size in draw(st.lists(st.integers(3, 8),
                                                           min_size=2, max_size=4))]),
    "planted": lambda draw: planted_almost_cliques(
        num_cliques=draw(st.integers(1, 3)), clique_size=draw(st.integers(5, 10)),
        num_sparse=draw(st.integers(0, 6)), seed=draw(st.integers(0, 99))).graph,
    "gnp": lambda draw: nx.gnp_random_graph(draw(st.integers(2, 30)),
                                            draw(st.sampled_from([0.1, 0.3, 0.7])),
                                            seed=draw(st.integers(0, 99))),
    "tie-star": lambda draw: _tie_star(),
    "detached-members": lambda draw: _detached_members(),
}

RELABEL = {
    "int": lambda v: v,
    "str": lambda v: f"n{v}",  # 'n10' sorts before 'n2'
    "tuple": lambda v: (v % 3, str(v)),
}


@st.composite
def acd_graphs(draw):
    """A graph of one kind, reinserted in a drawn node order and relabelled,
    so index order, label order and ``repr`` order differ; and an active set
    (``None`` for every node)."""
    graph = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))](draw)
    shuffled = nx.Graph()
    shuffled.add_nodes_from(draw(st.permutations(list(graph))))
    shuffled.add_edges_from(graph.edges())
    relabel = RELABEL[draw(st.sampled_from(sorted(RELABEL)))]
    graph = nx.relabel_nodes(shuffled, {v: relabel(v) for v in shuffled})
    active = None
    if draw(st.booleans()):
        active = {v for v in graph if draw(st.booleans())}
    return graph, active


def _assert_matches_reference(acd, graph, active, friend_edges, eps):
    sparse, uneven, cliques, clique_of = reference_classification(
        Network(graph, backend="dict"), graph if active is None else active,
        friend_edges, eps)
    assert acd.sparse_nodes == sparse
    assert acd.uneven_nodes == uneven
    assert acd.cliques == cliques
    assert acd.clique_of == clique_of


class TestIndexArrayClassification:
    """``compute_acd``'s array classification against the per-node reference
    (neighbourhood sets, ``friends_of``, BFS, the post-filter and the
    set-order unevenness sum) fed the same buddy edges."""

    @settings(max_examples=40, deadline=None)
    @given(inputs=acd_graphs(), uniform=st.booleans(), seed=st.integers(0, 3))
    def test_matches_the_per_node_reference(self, inputs, uniform, seed):
        graph, active = inputs
        params = ColoringParameters.small(seed=seed, uniform=uniform)
        want_buddies = _reference_buddies(graph, graph if active is None else active,
                                          params, seed)
        records = []
        for backend in ("dict", "columnar"):
            network = Network(graph, backend=backend)
            acd = compute_acd(network, params, active=active)
            assert friend_labels(network, acd) == want_buddies
            _assert_matches_reference(acd, graph, active, want_buddies, params.acd_eps)
            records.append(network.ledger.records)
        assert records[0] == records[1]

    @settings(max_examples=60, deadline=None)
    @given(inputs=acd_graphs(), share=st.sampled_from([0.3, 0.8, 1.0]),
           mask_seed=st.integers(0, 99))
    def test_matches_the_reference_on_any_buddy_edges(self, inputs, share, mask_seed):
        """Injected buddy verdicts reach components the buddy test rarely
        yields: merged cliques, evictions and disbanded components."""
        graph, active = inputs
        rng = np.random.default_rng(mask_seed)

        def buddy_mask(network, active_set, members, degree, candidates, params, seed):
            return rng.random(len(candidates)) < share

        network = Network(graph)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(acd_module, "_buddy_mask", buddy_mask)
            acd = compute_acd(network, ColoringParameters.small(seed=1), active=active)
        _assert_matches_reference(acd, graph, active, friend_labels(network, acd), 0.3)

    @pytest.mark.parametrize("graph, cliques", [
        (_detached_members(), {0: {1, 2, 3}}),
        # K5 minus the edge {0, 2}: 0 and 2 fail the membership bound, and
        # each eviction drops the next member below it, so all five go.
        (nx.Graph([e for e in itertools.combinations(range(5), 2) if e != (0, 2)]), {}),
    ], ids=["two-detached", "cascade"])
    def test_the_post_filter_evicts_in_sequence(self, monkeypatch, graph, cliques):
        monkeypatch.setattr(acd_module, "_buddy_mask",
                            lambda network, active_set, members, degree, candidates,
                            params, seed: np.ones(len(candidates), dtype=bool))
        network = Network(graph)
        acd = compute_acd(network, ColoringParameters.small(seed=1))
        _assert_matches_reference(acd, graph, None, friend_labels(network, acd), 0.3)
        assert acd.cliques == cliques


class TestUnevennessBand:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_a_near_tie_is_decided_in_set_order(self, backend):
        """The CSR-order and set-order sums of node 0 straddle its threshold;
        the set-order sum, the reference's, decides."""
        graph = _tie_star()
        topology = Topology(graph)
        degree = dict(graph.degree)
        threshold = SPARSITY_EPS * degree[0]

        def unevenness(order):
            return sum(max(0, degree[u] - degree[0]) / (degree[u] + 1) for u in order)

        row = [topology.nodes[i]
               for i in topology.indices[topology.indptr[0]:topology.indptr[1]].tolist()]
        assert row[:3] == [2, 3, 1]
        assert unevenness(row) < threshold == unevenness(set(topology.neighbors(0)))
        network = Network(graph, backend=backend)
        acd = compute_acd(network, ColoringParameters.small(seed=1))
        assert 0 in acd.uneven_nodes
        _assert_matches_reference(acd, graph, None, friend_labels(network, acd), 0.3)


class TestUniformACD:
    def test_uniform_buddy_recovers_planted_cliques(self, planted):
        params = ColoringParameters.small(seed=3, uniform=True)
        net = Network(planted.graph)
        acd = compute_acd(net, params)
        assert len(acd.cliques) >= len(planted.cliques) - 1
        for members in acd.cliques.values():
            best_overlap = max(
                len(members & truth) / max(len(members), 1) for truth in planted.cliques
            )
            assert best_overlap >= 0.7

    def test_uniform_no_false_cliques_on_sparse_graph(self):
        params = ColoringParameters.small(seed=4, uniform=True)
        g = locally_sparse_graph(50, degree=5, seed=5)
        acd = compute_acd(Network(g), params)
        assert len(acd.cliques) == 0

    def test_uniform_bandwidth_respected(self, planted_graph):
        params = ColoringParameters.small(seed=6, uniform=True)
        net = Network(planted_graph)
        compute_acd(net, params)
        assert net.ledger.max_edge_bits <= net.bandwidth_bits

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape", ["path", "star", "clique"])
    def test_the_setup_streams_within_a_tiny_budget(self, shape, n):
        """The setup (λ, hash index, multiset index) outgrows the default
        budget of a network this small (39 bits against 32 at n = 2); it
        is chunked, so the run stays within the budget on both backends."""
        graph = {"path": nx.path_graph, "star": lambda k: nx.star_graph(k - 1),
                 "clique": nx.complete_graph}[shape](n)
        records = []
        for backend in ("dict", "columnar"):
            network = Network(graph, backend=backend)
            compute_acd(network, ColoringParameters.small(seed=2, uniform=True))
            assert network.ledger.max_edge_bits <= network.bandwidth_bits
            records.append(network.ledger.records)
        assert records[0] == records[1]


def test_planted_recovery_and_flat_rounds():
    """Section 4.2 (E8): on 3x14 and 4x20 planted cliques, both buddy tests
    recover >= 60% of the planted cliques with a Definition 6-clean output,
    and the EstimateSimilarity ACD gains at most 10 rounds from 3x14 to 4x20."""
    rounds = {}
    for uniform in (False, True):
        params = ColoringParameters.small(seed=8, uniform=uniform)
        for num_cliques, clique_size in ((3, 14), (4, 20)):
            planted = planted_almost_cliques(
                num_cliques=num_cliques, clique_size=clique_size,
                num_sparse=2 * num_cliques, seed=clique_size,
            )
            acd = compute_acd(Network(planted.graph), params)
            report = validate_acd(
                planted.graph,
                sparse_nodes=acd.sparse_nodes,
                uneven_nodes=acd.uneven_nodes,
                almost_cliques=list(acd.cliques.values()),
                eps_sparse=SPARSITY_EPS,
                eps_clique=2 * params.acd_eps,
            )
            recovered = sum(
                max((len(members & truth) / len(truth)
                     for members in acd.cliques.values()), default=0.0) >= 0.8
                for truth in planted.cliques
            ) / len(planted.cliques)
            assert round(recovered, 2) >= 0.6
            assert acd_report_is_clean(report)
            rounds.setdefault(uniform, []).append(acd.rounds_used)
    similarity = rounds[False]
    assert similarity[-1] <= similarity[0] + 10
