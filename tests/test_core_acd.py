"""Tests for the almost-clique decomposition (Section 4.2, Definition 6)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.congest.topology import Topology
from repro.core import ColoringParameters
from repro.core.acd import _balanced_candidates, compute_acd
from repro.core.params import SPARSITY_EPS
from repro.graphs import planted_almost_cliques, validate_acd
from repro.graphs.generators import locally_sparse_graph
from acd_checks import acd_report_is_clean


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
        degrees, candidates = _balanced_candidates(Topology(graph), active, eps)
        # Reference: the same selection by walking graph.edges().
        want_degrees = {v: sum(1 for u in graph[v] if u in active) for v in active}
        want = [
            (u, v) for u, v in graph.edges()
            if u in active and v in active
            and min(want_degrees[u], want_degrees[v])
            >= (1.0 - eps) * max(want_degrees[u], want_degrees[v])
        ]
        assert degrees == want_degrees
        assert len(candidates) == len(want) and set(candidates) == set(want)


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
