"""Integration tests for the full D1LC / D1C / (Δ+1) solvers (Theorem 1, Corollary 1)."""

import networkx as nx
import pytest

from repro.core import ColoringParameters, solve_d1c, solve_d1lc, solve_delta_plus_one
from repro.graphs import (
    degree_plus_one_lists,
    gnp_graph,
    huge_color_space_lists,
    planted_almost_cliques,
    power_law_graph,
    shared_pool_lists,
)


class TestSolveD1C:
    def test_valid_on_random_graph(self, gnp_medium):
        result = solve_d1c(gnp_medium, seed=1)
        assert result.is_valid
        assert result.report.colored_nodes == gnp_medium.number_of_nodes()

    def test_valid_on_power_law_graph(self, powerlaw_small):
        result = solve_d1c(powerlaw_small, seed=2)
        assert result.is_valid

    def test_valid_on_clique(self):
        result = solve_d1c(nx.complete_graph(25), seed=3)
        assert result.is_valid

    def test_valid_on_path_and_isolated_nodes(self):
        g = nx.path_graph(10)
        g.add_nodes_from(range(100, 105))
        result = solve_d1c(g, seed=4)
        assert result.is_valid

    def test_valid_on_empty_graph(self):
        g = nx.empty_graph(5)
        result = solve_d1c(g, seed=5)
        assert result.is_valid

    def test_deterministic_given_seed(self, gnp_small):
        a = solve_d1c(gnp_small, seed=9)
        b = solve_d1c(gnp_small, seed=9)
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_bandwidth_never_exceeded(self, gnp_medium):
        result = solve_d1c(gnp_medium, seed=6)
        assert result.max_edge_bits <= result.bandwidth_bits

    def test_rounds_by_phase_cover_total(self, gnp_medium):
        result = solve_d1c(gnp_medium, seed=7)
        assert sum(result.rounds_by_phase.values()) == result.rounds
        assert result.randomized_rounds <= result.rounds

    def test_summary_contents(self, gnp_small):
        summary = solve_d1c(gnp_small, seed=8).summary()
        assert summary["valid"]
        assert summary["mode"] == "congest"
        assert summary["nodes"] == gnp_small.number_of_nodes()


class TestSolveD1LC:
    def test_valid_with_arbitrary_lists(self, planted_graph, d1lc_lists):
        result = solve_d1lc(planted_graph, d1lc_lists, seed=1)
        assert result.is_valid
        for v, color in result.coloring.items():
            assert color in d1lc_lists[v]

    def test_valid_with_adversarial_shared_pool(self, gnp_small):
        lists = shared_pool_lists(gnp_small, seed=2)
        result = solve_d1lc(gnp_small, lists, seed=2)
        assert result.is_valid

    def test_valid_with_huge_color_space(self, gnp_small):
        """Appendix D.3: colors of hundreds of bits still respect the bandwidth."""
        lists = huge_color_space_lists(gnp_small, color_space_bits=200, seed=3)
        result = solve_d1lc(gnp_small, lists, seed=3)
        assert result.is_valid
        assert result.max_edge_bits <= result.bandwidth_bits
        assert result.bandwidth_bits < 200

    def test_most_nodes_colored_by_randomized_part(self, planted_graph, d1lc_lists):
        result = solve_d1lc(planted_graph, d1lc_lists, seed=4)
        assert result.fallback_nodes <= 0.25 * planted_graph.number_of_nodes()

    def test_local_mode(self, gnp_small):
        result = solve_d1lc(gnp_small, mode="local", seed=5)
        assert result.is_valid
        assert result.mode == "local"

    def test_uniform_implementation(self, gnp_small):
        params = ColoringParameters.small(seed=6, uniform=True)
        result = solve_d1lc(gnp_small, params=params)
        assert result.is_valid

    def test_paper_parameters_still_valid_on_tiny_graph(self):
        g = gnp_graph(30, 0.2, seed=7)
        result = solve_d1lc(g, params=ColoringParameters.paper(seed=7))
        assert result.is_valid


@pytest.mark.parametrize("solve", [solve_d1c, solve_d1lc])
def test_only_one_shard_accepted(solve):
    g = gnp_graph(20, 0.2, seed=3)
    assert solve(g, seed=1, shards=1).is_valid
    with pytest.raises(ValueError, match="shards must be 1"):
        solve(g, seed=1, shards=2)


class TestSolveDeltaPlusOne:
    def test_valid_and_uses_at_most_delta_plus_one_colors(self, gnp_medium):
        result = solve_delta_plus_one(gnp_medium, seed=1)
        assert result.is_valid
        delta = max(d for _, d in gnp_medium.degree())
        assert set(result.coloring.values()) <= set(range(delta + 1))

    def test_valid_on_planted_cliques(self, planted_graph):
        result = solve_delta_plus_one(planted_graph, seed=2)
        assert result.is_valid


class TestRoundComplexityShape:
    """The headline claim: rounds grow like poly(log log n), not like log n or Δ."""

    def test_rounds_grow_slowly_with_n(self):
        sizes = [40, 160]
        rounds = []
        for n in sizes:
            g = gnp_graph(n, min(0.3, 8.0 / n), seed=n)
            rounds.append(solve_d1c(g, seed=n).randomized_rounds)
        # Quadrupling n should not quadruple the randomized round count.
        assert rounds[1] <= 2.5 * max(1, rounds[0])

    def test_rounds_do_not_scale_with_degree(self):
        """Doubling the degree should leave the round count roughly unchanged."""
        small_deg = solve_d1c(gnp_graph(60, 0.12, seed=1), seed=1).randomized_rounds
        large_deg = solve_d1c(gnp_graph(60, 0.4, seed=1), seed=1).randomized_rounds
        assert large_deg <= 2.5 * max(1, small_deg)

    def test_dense_graph_beats_naive_color_broadcast_bound(self, planted_graph):
        """Rounds stay far below Δ (what a neighborhood-exchange ACD would cost)."""
        result = solve_d1c(planted_graph, seed=3)
        delta = max(d for _, d in planted_graph.degree())
        assert result.randomized_rounds <= 20 * delta  # loose sanity ceiling
        assert result.max_edge_bits <= result.bandwidth_bits
