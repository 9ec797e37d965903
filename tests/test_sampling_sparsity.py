"""Tests for sparsity estimation (Algorithm 3, Lemmas 4-5)."""

import re

import networkx as nx
import pytest

from repro.congest import Network
from repro.graphs import exact_global_sparsity, exact_local_sparsity
from repro.sampling import (
    SimilarityParameters,
    estimate_global_sparsity,
    estimate_local_sparsity,
)


@pytest.mark.parametrize("estimate", [estimate_global_sparsity,
                                      estimate_local_sparsity])
@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 2.0])
def test_eps_outside_unit_interval_rejected_before_any_round(estimate, eps):
    net = Network(nx.complete_graph(6))
    with pytest.raises(ValueError, match=re.escape(f"got {eps}")):
        estimate(net, eps=eps, seed=1)
    assert net.ledger.rounds == 0


class TestGlobalSparsity:
    def test_clique_has_near_zero_sparsity(self):
        g = nx.complete_graph(24)
        net = Network(g)
        estimates = estimate_global_sparsity(net, eps=0.4, seed=1)
        for v in g.nodes():
            truth = exact_global_sparsity(g, v)
            assert truth == pytest.approx(0.0)
            assert estimates[v] <= 0.4 * 23 + 1

    def test_star_center_is_maximally_sparse(self):
        g = nx.star_graph(20)
        net = Network(g)
        estimates = estimate_global_sparsity(net, eps=0.4, seed=2)
        truth = exact_global_sparsity(g, 0)
        assert truth == pytest.approx((20 - 1) / 2.0)
        assert abs(estimates[0] - truth) <= 0.4 * 20 + 1

    def test_lemma4_accuracy_on_random_graph(self, gnp_small):
        net = Network(gnp_small)
        eps = 0.5
        estimates = estimate_global_sparsity(net, eps=eps, seed=3)
        delta = net.max_degree()
        errors = [
            abs(estimates[v] - exact_global_sparsity(gnp_small, v))
            for v in gnp_small.nodes()
        ]
        within = sum(1 for e in errors if e <= eps * delta)
        assert within >= 0.9 * len(errors)

    def test_constant_rounds(self, gnp_small):
        net = Network(gnp_small)
        result = estimate_global_sparsity(net, eps=0.4, seed=4)
        assert result.rounds_used <= 20  # independent of n and Delta

    def test_restricted_node_list(self, gnp_small):
        net = Network(gnp_small)
        subset = list(gnp_small.nodes())[:5]
        result = estimate_global_sparsity(net, eps=0.4, nodes=subset, seed=5)
        assert set(result.estimates) == set(subset)


class TestLocalSparsity:
    def test_clique_members_have_zero_local_sparsity(self):
        g = nx.complete_graph(20)
        net = Network(g)
        result = estimate_local_sparsity(net, eps=0.4, seed=1)
        for v in g.nodes():
            assert exact_local_sparsity(g, v) == pytest.approx(0.0)
            assert result[v] <= 0.4 * 19 + 1

    def test_reliability_flag_with_high_degree_neighbors(self):
        """Lemma 5: nodes with many much-higher-degree neighbours are flagged."""
        g = nx.Graph()
        # A low-degree node attached to several hubs.
        hubs = [f"hub{i}" for i in range(3)]
        for hub in hubs:
            for leaf in range(30):
                g.add_edge(hub, f"{hub}-leaf-{leaf}")
            g.add_edge("victim", hub)
        net = Network(g)
        result = estimate_local_sparsity(net, eps=0.3, seed=2)
        assert result.reliable["victim"] is False

    def test_reliable_nodes_accurate(self, gnp_small):
        net = Network(gnp_small)
        eps = 0.5
        result = estimate_local_sparsity(net, eps=eps, seed=3)
        checked = 0
        within = 0
        for v in gnp_small.nodes():
            if not result.reliable[v] or gnp_small.degree(v) == 0:
                continue
            checked += 1
            error = abs(result[v] - exact_local_sparsity(gnp_small, v))
            if error <= eps * gnp_small.degree(v) + 1:
                within += 1
        assert checked > 0
        assert within >= 0.85 * checked

    def test_rounds_include_degree_broadcast(self, gnp_small):
        net = Network(gnp_small)
        result = estimate_local_sparsity(net, eps=0.4, seed=4)
        assert result.rounds_used >= 2

    def test_custom_similarity_params(self, gnp_small):
        net = Network(gnp_small)
        params = SimilarityParameters.practical(eps=0.2, seed=9)
        result = estimate_local_sparsity(net, params=params, seed=9)
        assert set(result.estimates) == set(gnp_small.nodes())
