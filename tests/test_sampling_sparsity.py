"""Tests for sparsity estimation (Algorithm 3, Lemmas 4-5)."""

import re

import networkx as nx
import pytest

from repro.congest import Network
from repro.graphs import (
    exact_global_sparsity,
    exact_local_sparsity,
    gnp_graph,
    planted_almost_cliques,
)
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


@pytest.mark.parametrize("make_graph", [
    lambda: gnp_graph(100, 0.1, seed=4),
    lambda: planted_almost_cliques(3, 16, num_sparse=20, seed=4).graph,
], ids=["gnp-100-0.1", "planted-cliques"])
def test_lemmas_4_5_accuracy_and_rounds(make_graph):
    """Lemmas 4-5 (E4): at ε = 0.4, 90% of global and 80% of reliable local
    estimates land in their windows, and the global pass is O(1) rounds.

    Both estimates run on one network, global first.
    """
    eps = 0.4
    graph = make_graph()
    net = Network(graph)
    global_est = estimate_global_sparsity(net, eps=eps, seed=5)
    delta = max(d for _, d in graph.degree())
    within_global = sum(
        1 for v in graph.nodes()
        if abs(global_est[v] - exact_global_sparsity(graph, v)) <= eps * delta
    ) / graph.number_of_nodes()

    local_est = estimate_local_sparsity(net, eps=eps, seed=6)
    reliable = [v for v in graph.nodes() if local_est.reliable[v] and graph.degree(v) > 0]
    within_local = sum(
        1 for v in reliable
        if abs(local_est[v] - exact_local_sparsity(graph, v)) <= eps * graph.degree(v) + 1
    ) / max(1, len(reliable))

    assert round(within_global, 3) >= 0.9
    assert round(within_local, 3) >= 0.8
    assert global_est.rounds_used <= 40


@pytest.mark.parametrize("plan, delivered, changed", [
    ({"drop": 0.3}, 1187, 0),
    ({"corrupt": 0.05}, 1752, 352),
], ids=["drop", "corrupt"])
@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_local_sparsity_under_a_fault_plan_matches_a_per_node_loop(
        backend, plan, delivered, changed):
    """Under a fault plan each receiver reads the announced degree where one
    arrived and the true degree where the plan removed it.

    A twin network replays the degree round (the plan's draws depend only
    on the round, sender and receiver), and a per-node loop recomputes
    ``estimates`` and ``reliable`` from what it delivered and the returned
    per-edge similarities.
    """
    graph = gnp_graph(150, 0.08, seed=4)
    network = Network(graph, backend=backend, faults=plan, fault_seed=3)
    result = estimate_local_sparsity(network, seed=5)

    twin = Network(graph, backend=backend, faults=plan, fault_seed=3)
    deliveries = twin.broadcast({v: twin.degree(v) for v in twin.nodes},
                                label="estimate-sparsity:degrees")
    heard = {v: {} for v in graph.nodes()}
    for sender, receiver, degree in zip(*deliveries.labelled(twin.nodes)):
        heard[receiver][sender] = degree
    assert sum(map(len, heard.values())) == delivered
    assert sum(degree != graph.degree(sender) for box in heard.values()
               for sender, degree in box.items()) == changed

    eps = 0.3  # estimate_local_sparsity's default
    estimates, reliable = {}, {}
    for v in graph.nodes():
        dv = max(1, graph.degree(v))
        usable = [u for u in network.neighbors(v)
                  if heard[v].get(u, graph.degree(u)) < 2 * dv]
        total = sum(result.edge_similarities[(v, u)].estimate for u in usable)
        estimates[v] = (dv - 1) / 2.0 - total / (2.0 * dv)
        reliable[v] = graph.degree(v) - len(usable) < eps * dv / 3.0
    assert result.estimates == estimates
    assert result.reliable == reliable
