"""Tests for the baseline algorithms and the bandwidth ablations."""

from repro.baselines import (
    johansson_coloring,
    naive_compute_acd,
    naive_multi_trial,
)
from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, validate_coloring
from repro.core.multitrial import multi_trial
from repro.core.state import ColoringState
from repro.graphs import degree_plus_one_lists, numeric_degree_lists
from acd_checks import friend_labels


class TestJohansson:
    def test_valid_coloring(self, gnp_medium):
        result = johansson_coloring(gnp_medium, seed=1)
        assert result.is_valid

    def test_valid_with_lists(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=2)
        result = johansson_coloring(gnp_small, lists, seed=2)
        assert result.is_valid

    def test_round_count_logarithmic_shape(self):
        """Rounds grow slowly (log-ish) with n, but are nonzero."""
        from repro.graphs import gnp_graph

        small = johansson_coloring(gnp_graph(30, 0.2, seed=1), seed=1).rounds
        large = johansson_coloring(gnp_graph(240, 0.05, seed=1), seed=1).rounds
        assert small >= 2
        assert large <= 8 * small

    def test_bandwidth_respected(self, gnp_medium):
        result = johansson_coloring(gnp_medium, seed=3)
        assert result.max_edge_bits <= result.bandwidth_bits


class TestNaiveACD:
    def test_matches_planted_structure(self, planted, small_params):
        net = Network(planted.graph)
        acd = naive_compute_acd(net, small_params)
        assert len(acd.cliques) == len(planted.cliques)
        friends = friend_labels(net, acd)
        assert friends and all(planted.graph.has_edge(u, v) for u, v in friends)

    def test_uses_more_bits_per_edge_than_hashed_acd(self, planted, small_params):
        """The ablation: naive ACD ships Θ(Δ log n) bits, the hashed one O(ε^-4 log n)."""
        from repro.core.acd import compute_acd

        strict_budget = 16  # a strict log n budget makes the contrast visible
        naive_net = Network(planted.graph, bandwidth_bits=strict_budget)
        hashed_net = Network(planted.graph, bandwidth_bits=strict_budget)
        naive_compute_acd(naive_net, small_params)
        compute_acd(hashed_net, small_params)
        naive_bits_per_edge = naive_net.ledger.total_bits / naive_net.graph.number_of_edges()
        # The naive version must ship at least Δ identifiers over clique edges.
        delta = max(d for _, d in planted.graph.degree())
        assert naive_bits_per_edge >= delta  # ≥ Δ bits even at 1 bit per identifier

    def test_respects_chunked_bandwidth(self, planted, small_params):
        net = Network(planted.graph, bandwidth_bits=16)
        naive_compute_acd(net, small_params)
        assert net.ledger.max_edge_bits <= 16


class TestNaiveMultiTrial:
    def make_state(self, graph, extra=10, seed=1):
        lists = numeric_degree_lists(graph, extra=extra)
        instance = ColoringInstance.d1lc(graph, lists)
        network = Network(graph, bandwidth_bits=24)
        return ColoringState(instance, network, ColoringParameters.small(seed=seed))

    def test_colors_nodes_and_stays_proper(self, gnp_small):
        state = self.make_state(gnp_small)
        colored = naive_multi_trial(state, 6)
        assert colored
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_uses_more_rounds_than_hashed_multitrial_for_many_tries(self, gnp_small):
        """The ablation of Section 4.1: x explicit colors need ~x·log|C|/b rounds."""
        tries = 16
        naive_state = self.make_state(gnp_small, extra=40, seed=2)
        hashed_state = self.make_state(gnp_small, extra=40, seed=2)
        naive_multi_trial(naive_state, tries)
        multi_trial(hashed_state, tries)
        naive_rounds = naive_state.network.rounds_used
        hashed_rounds = hashed_state.network.rounds_used
        # Both are small, but the naive one pays per tried color.
        assert naive_rounds >= 3
        assert hashed_rounds <= naive_rounds + 60  # hashed pays sigma/b, a constant

    def test_bandwidth_respected(self, gnp_small):
        state = self.make_state(gnp_small)
        naive_multi_trial(state, 8)
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits
