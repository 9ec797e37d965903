"""Tests for local triangle and 4-cycle detection (Theorems 2 and 3)."""

import re

import networkx as nx
import pytest

from repro.congest import Network
from repro.graphs.generators import four_cycle_rich_graph, triangle_rich_graph
from repro.sampling import detect_four_cycle_rich_pairs, detect_triangle_rich_edges
from repro.sampling.four_cycles import true_four_cycle_count
from repro.sampling.triangles import true_triangle_count


class TestTriangleDetection:
    def test_clique_edges_are_flagged(self):
        g = nx.complete_graph(20)
        net = Network(g)
        result = detect_triangle_rich_edges(net, eps=0.3, seed=1)
        # Every edge of K20 is in 18 triangles >= 0.3 * 19.
        flagged_fraction = len(result.flagged) / g.number_of_edges()
        assert flagged_fraction >= 0.9

    def test_triangle_free_graph_not_flagged(self):
        g = nx.complete_bipartite_graph(10, 10)
        net = Network(g)
        result = detect_triangle_rich_edges(net, eps=0.3, seed=2)
        assert len(result.flagged) <= 0.05 * g.number_of_edges()

    def test_planted_instance_recall_and_precision(self):
        planted = triangle_rich_graph(n=80, background_p=0.02, planted_cliques=2,
                                      clique_size=12, seed=3)
        net = Network(planted.graph)
        eps = 0.3
        result = detect_triangle_rich_edges(net, eps=eps, seed=3)
        threshold = result.threshold
        # Score against the actual triangle counts (the planted edges are the
        # ones far above threshold, background edges far below).
        hits, misses, false_alarms = 0, 0, 0
        for u, v in planted.graph.edges():
            count = true_triangle_count(net, u, v)
            flagged = result.is_flagged(u, v)
            if count >= 2 * threshold and not flagged:
                misses += 1
            elif count >= 2 * threshold:
                hits += 1
            elif count <= 0.25 * threshold and flagged:
                false_alarms += 1
        assert hits > 0
        assert misses <= 0.2 * max(1, hits + misses)
        assert false_alarms <= 0.1 * planted.graph.number_of_edges()

    def test_round_count_independent_of_size(self):
        small = Network(nx.complete_graph(12))
        large = Network(triangle_rich_graph(n=100, seed=5).graph)
        r_small = detect_triangle_rich_edges(small, eps=0.3, seed=6).rounds_used
        r_large = detect_triangle_rich_edges(large, eps=0.3, seed=6).rounds_used
        assert r_large <= 3 * max(1, r_small) + 20

    def test_true_triangle_count_helper(self):
        g = nx.complete_graph(4)
        net = Network(g)
        assert true_triangle_count(net, 0, 1) == 2

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 2.0])
    def test_eps_outside_unit_interval_rejected_before_any_round(self, eps):
        net = Network(nx.complete_graph(6))
        with pytest.raises(ValueError, match=re.escape(f"got {eps}")):
            detect_triangle_rich_edges(net, eps=eps, seed=1)
        assert net.ledger.rounds == 0

    def test_explicit_delta_threshold(self):
        g = nx.complete_graph(10)
        net = Network(g)
        result = detect_triangle_rich_edges(net, eps=0.5, delta=100, seed=7)
        # threshold 50 is unreachable in K10, nothing should be flagged.
        assert result.threshold == 50
        assert not result.flagged


class TestFourCycleDetection:
    def test_bipartite_block_wedges_flagged(self):
        g = nx.complete_bipartite_graph(8, 8)
        net = Network(g)
        result = detect_four_cycle_rich_pairs(net, eps=0.3, seed=1)
        # Wedges centred on a left vertex with two right neighbours lie in
        # many 4-cycles (every other left vertex closes one).
        flagged_count = len(result.flagged)
        assert flagged_count > 0

    def test_tree_has_no_four_cycles(self):
        g = nx.balanced_tree(3, 3)
        net = Network(g)
        result = detect_four_cycle_rich_pairs(net, eps=0.3, seed=2)
        assert len(result.flagged) <= 0.02 * len(result.estimates) + 1

    def test_true_four_cycle_count_helper(self):
        g = nx.cycle_graph(4)
        net = Network(g)
        assert true_four_cycle_count(net, 0, 1, 3) == 1

    def test_planted_instance(self):
        planted = four_cycle_rich_graph(n=60, background_p=0.02, planted_blocks=1,
                                        side_size=8, seed=4)
        net = Network(planted.graph)
        result = detect_four_cycle_rich_pairs(net, eps=0.3, seed=4)
        rich_hits = sum(
            1 for (center, u, w) in result.flagged if center in planted.rich_centers
        )
        assert rich_hits >= 0.5 * max(1, len(result.flagged))

    def test_estimates_cover_all_wedges_of_requested_nodes(self):
        g = nx.star_graph(5)
        net = Network(g)
        result = detect_four_cycle_rich_pairs(net, eps=0.3, nodes=[0], seed=5)
        assert len(result.estimates) == 5 * 4 // 2

    def test_bandwidth_respected(self):
        g = nx.complete_bipartite_graph(6, 6)
        net = Network(g)
        detect_four_cycle_rich_pairs(net, eps=0.3, seed=6)
        assert net.ledger.max_edge_bits <= net.bandwidth_bits
