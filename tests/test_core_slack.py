"""Tests for TryColor / TryRandomColor / GenerateSlack (Algorithms 10-12)."""

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, solve_d1c
from repro.core.slack import generate_slack, try_color, try_random_color
from repro.core.state import ColoringState
from repro.graphs import degree_plus_one_lists, gnp_graph, huge_color_space_lists


def make_state(graph, params=None, lists=None, seed=1):
    instance = (
        ColoringInstance.d1c(graph)
        if lists is None
        else ColoringInstance.d1lc(graph, lists)
    )
    network = Network(graph)
    return ColoringState(
        instance, network, (params or ColoringParameters.small()).with_seed(seed)
    )


class TestTryColor:
    def test_non_conflicting_proposals_all_succeed(self):
        g = nx.path_graph(4)
        state = make_state(g)
        colored = try_color(state, {0: 0, 1: 1, 2: 0, 3: 1})
        assert colored == {0, 1, 2, 3}
        assert state.report().is_valid

    def test_conflicting_neighbors_both_fail(self):
        g = nx.path_graph(2)
        state = make_state(g)
        colored = try_color(state, {0: 0, 1: 0})
        assert colored == set()

    def test_priority_breaks_conflicts(self):
        g = nx.path_graph(2)
        state = make_state(g)
        colored = try_color(state, {0: 0, 1: 0}, priority={0: 0, 1: 1})
        assert colored == {0}
        assert not state.is_colored(1)

    def test_result_never_conflicts(self, gnp_small):
        state = make_state(gnp_small)
        proposals = {v: 0 for v in gnp_small.nodes()}  # everyone tries color 0
        try_color(state, proposals)
        assert state.report().is_proper

    def test_adopted_colors_removed_from_neighbor_palettes(self):
        g = nx.path_graph(3)
        state = make_state(g)
        try_color(state, {0: 0})
        assert 0 not in state.palettes[1]
        assert 0 in state.palettes[2]  # not a neighbour of node 0

    def test_colored_nodes_do_not_propose_again(self):
        g = nx.path_graph(3)
        state = make_state(g)
        try_color(state, {0: 0})
        colored = try_color(state, {0: 1})
        assert colored == set()

    def test_proposal_outside_palette_ignored(self):
        g = nx.path_graph(3)
        state = make_state(g)
        colored = try_color(state, {0: 999})
        assert colored == set()

    def test_empty_proposals_charge_rounds_for_synchrony(self):
        g = nx.path_graph(3)
        state = make_state(g)
        before = state.network.rounds_used
        try_color(state, {})
        assert state.network.rounds_used == before + 2

    def test_rounds_per_invocation_constant(self, gnp_small):
        state = make_state(gnp_small)
        before = state.network.rounds_used
        try_color(state, {v: 0 for v in list(gnp_small.nodes())[:10]})
        assert state.network.rounds_used - before == 2

    def test_chromatic_slack_tracked_when_requested(self):
        g = nx.path_graph(2)
        lists = {0: {10, 11}, 1: {20, 21}}
        state = make_state(g, lists=lists)
        try_color(state, {0: 10}, track_chromatic_slack=True)
        # Node 1's original palette does not contain 10, so it gains slack.
        assert state.chromatic_slack[1] == 1

    def test_works_with_huge_color_spaces(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=200, seed=3)
        state = make_state(gnp_small, lists=lists)
        proposals = {v: sorted(state.palettes[v])[0] for v in gnp_small.nodes()}
        try_color(state, proposals)
        assert state.report().is_proper
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits


class TestTryRandomColor:
    def test_colors_most_nodes_on_easy_instances(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=5)
        state = make_state(gnp_small, lists=lists)
        colored = try_random_color(state, gnp_small.nodes())
        assert len(colored) >= 0.3 * gnp_small.number_of_nodes()
        assert state.report().is_proper

    def test_skips_colored_nodes(self):
        g = nx.path_graph(3)
        state = make_state(g)
        state.adopt(0, 0)
        colored = try_random_color(state, [0])
        assert colored == set()

    def test_deterministic_given_seed(self, gnp_small):
        a = make_state(gnp_small, seed=9)
        b = make_state(gnp_small, seed=9)
        assert try_random_color(a, gnp_small.nodes()) == try_random_color(b, gnp_small.nodes())


class TestGenerateSlack:
    def test_participation_probability_roughly_pg(self, gnp_medium):
        params = ColoringParameters.small(seed=2)
        state = make_state(gnp_medium, params=params)
        colored = generate_slack(state)
        n = gnp_medium.number_of_nodes()
        # At most p_g fraction participate, so at most that many get colored.
        assert len(colored) <= 0.3 * n
        assert state.report().is_proper

    def test_generates_chromatic_slack_on_list_instances(self, gnp_medium):
        lists = degree_plus_one_lists(gnp_medium, seed=7)
        state = make_state(gnp_medium, lists=lists, seed=3)
        generate_slack(state)
        total_slack = sum(state.chromatic_slack.values())
        assert total_slack > 0

    def test_restricted_to_given_nodes(self, gnp_medium):
        state = make_state(gnp_medium, seed=4)
        subset = set(list(gnp_medium.nodes())[:10])
        colored = generate_slack(state, subset)
        assert colored <= subset


class TestColorRounds:
    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_direct_mode_color_rounds_are_broadcasts(self, backend, monkeypatch):
        labels = {"exchange": [], "broadcast": []}
        for method, seen in labels.items():
            original = getattr(Network, method)

            def spy(self, payload, label=method, _original=original, _seen=seen):
                _seen.append(label)
                return _original(self, payload, label=label)

            monkeypatch.setattr(Network, method, spy)
        result = solve_d1c(gnp_graph(80, 0.1, seed=2), seed=5, backend=backend)
        assert result.is_valid and result.mode == "congest"

        def color_round(label):
            return label.endswith((":propose", ":adopt"))

        assert not [label for label in labels["exchange"] if color_round(label)]
        assert any(color_round(label) for label in labels["broadcast"])
