"""Tests for SlackColor (Algorithm 15) and the shattering fallback."""

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, validate_coloring
from repro.core.shattering import deterministic_fallback
from repro.core.slack_color import slack_color
from repro.core.state import ColoringState
from repro.graphs import numeric_degree_lists


def make_state(graph, extra, seed=1):
    lists = numeric_degree_lists(graph, extra=extra)
    instance = ColoringInstance.d1lc(graph, lists)
    network = Network(graph)
    return ColoringState(instance, network, ColoringParameters.small(seed=seed))


class TestSlackColor:
    def test_colors_all_nodes_with_linear_slack(self, gnp_small):
        delta = max(d for _, d in gnp_small.degree())
        state = make_state(gnp_small, extra=2 * delta)
        outcome = slack_color(state, gnp_small.nodes(), s_min=delta)
        assert not state.uncolored_nodes()
        assert outcome.colored == set(gnp_small.nodes())
        assert not outcome.dropped
        assert validate_coloring(state.instance, state.colors).is_valid

    def test_result_always_proper(self, gnp_medium):
        state = make_state(gnp_medium, extra=4)
        slack_color(state, gnp_medium.nodes(), s_min=4)
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_drops_nodes_without_slack(self):
        # A clique with bare deg+1 palettes: after the warm-up trials some
        # nodes may survive, but nobody with slack < 2*degree may proceed to
        # the MultiTrial schedule with a guarantee; dropped + colored must
        # account for every participant.
        g = nx.complete_graph(12)
        state = make_state(g, extra=0)
        outcome = slack_color(state, g.nodes(), s_min=4)
        assert outcome.colored | outcome.dropped == set(g.nodes())
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_round_count_scales_with_log_star_not_degree(self, gnp_small):
        """The schedule is O(log* s_min) MultiTrial calls, each O(1) rounds."""
        delta = max(d for _, d in gnp_small.degree())
        state = make_state(gnp_small, extra=2 * delta)
        before = state.network.rounds_used
        slack_color(state, gnp_small.nodes(), s_min=delta)
        rounds = state.network.rounds_used - before
        assert rounds <= 200  # constant-ish; in particular far below n = 40 * degree

    def test_outcome_accounts_for_every_participant(self, gnp_small):
        delta = max(d for _, d in gnp_small.degree())
        state = make_state(gnp_small, extra=2 * delta)
        outcome = slack_color(state, gnp_small.nodes(), s_min=delta)
        assert outcome.iterations >= 0
        assert outcome.colored | outcome.dropped == set(gnp_small.nodes())

    def test_empty_participant_set(self, gnp_small):
        state = make_state(gnp_small, extra=2)
        outcome = slack_color(state, [], s_min=4)
        assert not outcome.colored and not outcome.dropped

    def test_restricted_participants_only(self, gnp_small):
        delta = max(d for _, d in gnp_small.degree())
        state = make_state(gnp_small, extra=2 * delta)
        subset = set(list(gnp_small.nodes())[:10])
        outcome = slack_color(state, subset, s_min=delta)
        assert outcome.colored <= subset
        assert {v for v in gnp_small.nodes() if state.is_colored(v)} <= subset

    def test_temporary_slack_from_non_participants(self):
        """Nodes with bare palettes still succeed when half their neighbours wait.

        This is the mechanism behind V_start, outliers-before-inliers and
        put-aside sets: competition only comes from concurrent participants.
        """
        g = nx.complete_graph(16)
        state = make_state(g, extra=0, seed=3)
        participants = set(list(g.nodes())[:8])  # the other 8 stay uncolored
        outcome = slack_color(state, participants, s_min=4)
        assert len(outcome.colored) >= 6
        assert validate_coloring(state.instance, state.colors).is_proper


class TestDeterministicFallback:
    def test_completes_any_partial_coloring(self, gnp_medium):
        state = make_state(gnp_medium, extra=0, seed=5)
        deterministic_fallback(state)
        assert validate_coloring(state.instance, state.colors).is_valid

    def test_respects_existing_colors(self, gnp_small):
        from repro.core.slack import try_color

        state = make_state(gnp_small, extra=0, seed=6)
        v = next(iter(gnp_small.nodes()))
        color = sorted(state.palettes[v], key=repr)[0]
        # Color the node through the regular trial so neighbours prune their
        # palettes (state.adopt alone is local bookkeeping).
        assert try_color(state, {v: color}) == {v}
        deterministic_fallback(state)
        assert state.colors[v] == color
        assert validate_coloring(state.instance, state.colors).is_valid

    def test_on_clique(self):
        g = nx.complete_graph(10)
        state = make_state(g, extra=0, seed=7)
        colored = deterministic_fallback(state)
        assert colored == set(g.nodes())
        assert validate_coloring(state.instance, state.colors).is_valid

    def test_restricted_node_set(self, gnp_small):
        state = make_state(gnp_small, extra=0, seed=8)
        subset = set(list(gnp_small.nodes())[:5])
        colored = deterministic_fallback(state, nodes=subset)
        assert colored == subset

    def test_noop_when_everything_colored(self, path_graph):
        state = make_state(path_graph, extra=0, seed=9)
        deterministic_fallback(state)
        assert deterministic_fallback(state) == set()

    def test_rounds_bounded_by_component_size(self):
        g = nx.path_graph(12)
        state = make_state(g, extra=0, seed=10)
        before = state.network.rounds_used
        deterministic_fallback(state)
        assert state.network.rounds_used - before <= 2 * (2 * 12 + 4)
