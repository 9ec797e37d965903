"""Tests for MultiTrial (Algorithm 4) and its uniform variant (Algorithm 5)."""

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters
from repro.core import multitrial as multitrial_module
from repro.core.multitrial import lemma6_bound, lemma6_tries, multi_trial
from repro.core.state import ColoringState
from repro.graphs import (
    degree_plus_one_lists,
    gnp_graph,
    huge_color_space_lists,
    numeric_degree_lists,
)


def make_state(graph, lists=None, extra=8, uniform=False, seed=1):
    """A state where every node has `extra` more colors than its degree (slack)."""
    if lists is None:
        lists = numeric_degree_lists(graph, extra=extra)
    instance = ColoringInstance.d1lc(graph, lists)
    network = Network(graph)
    params = ColoringParameters.small(seed=seed, uniform=uniform)
    return ColoringState(instance, network, params)


class TestLemma6Tries:
    def test_a_crowded_node_runs_fewer_tries_and_lowers_the_bound(self, monkeypatch):
        """A star's centre competes with 20 leaves: with 560 colors Lemma 6
        allows it 560 // 40 = 14 < 16 tries, and the bound is its
        1 − (7/8)^14 − 2ν, below 1 − (7/8)^16 − 2ν of the worst ν."""
        graph = nx.star_graph(20)
        lists = {0: range(560), **{leaf: range(1000, 2000) for leaf in range(1, 21)}}
        state = make_state(graph, lists=lists)
        tries = lemma6_tries(state, 16)
        assert tries == {v: 14 if v == 0 else 16 for v in graph}
        params = state.params

        def nu(v):
            lam = max(2, params.multitrial_lambda_factor * len(state.palettes[v]))
            return params.multitrial_nu(lam, graph.number_of_nodes())

        bound = lemma6_bound(state, 16)
        assert bound == 1.0 - (7 / 8) ** 14 - 2.0 * nu(0)
        assert bound == min(1.0 - (7 / 8) ** tries[v] - 2.0 * nu(v) for v in graph)
        assert 0 < bound < 1.0 - (7 / 8) ** 16 - 2.0 * max(map(nu, graph)) - 0.03
        # multi_trial runs the tries this same helper clamps.
        seen = []

        def spy(*args, **kwargs):
            seen.append(lemma6_tries(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(multitrial_module, "lemma6_tries", spy)
        multi_trial(state, 16)
        assert seen == [tries]

    def test_no_participant_leaves_the_unclamped_bound(self):
        state = make_state(nx.empty_graph(0))
        assert lemma6_tries(state, 16) == {}
        assert lemma6_bound(state, 16) == 1.0 - (7 / 8) ** 16


class TestMultiTrialRepresentative:
    def test_single_trial_colors_most_slack_rich_nodes(self, gnp_small):
        state = make_state(gnp_small, extra=3 * max(d for _, d in gnp_small.degree()))
        colored = multi_trial(state, 8)
        assert len(colored) >= 0.7 * gnp_small.number_of_nodes()
        assert state.report().is_proper

    def test_lemma6_success_rate_improves_with_tries(self, gnp_medium):
        """More tried colors -> higher per-invocation coloring probability."""
        rates = {}
        for tries in (1, 8):
            state = make_state(gnp_medium, extra=4 * max(d for _, d in gnp_medium.degree()),
                               seed=tries)
            colored = multi_trial(state, tries)
            rates[tries] = len(colored) / gnp_medium.number_of_nodes()
        assert rates[8] >= rates[1]

    def test_never_produces_conflicts(self, gnp_small):
        state = make_state(gnp_small, extra=10)
        for _ in range(3):
            multi_trial(state, 4)
        assert state.report().is_proper

    def test_constant_rounds_per_invocation(self, gnp_small):
        state = make_state(gnp_small, extra=20)
        before = state.network.rounds_used
        multi_trial(state, 8)
        rounds = state.network.rounds_used - before
        assert rounds <= 4 + (2048 // state.network.bandwidth_bits) + 2

    def test_bandwidth_respected(self, gnp_small):
        state = make_state(gnp_small, extra=20)
        multi_trial(state, 16)
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits

    def test_no_participants_is_a_noop(self, gnp_small):
        state = make_state(gnp_small)
        before_rounds = state.network.rounds_used
        colored = multi_trial(state, 4, participants=[])
        assert colored == set()
        # Synchrony is preserved: the silent rounds are still charged.
        assert state.network.rounds_used > before_rounds

    def test_per_node_tries_mapping(self, gnp_small):
        state = make_state(gnp_small, extra=20)
        tries = {v: 4 for v in list(gnp_small.nodes())[:5]}
        colored = multi_trial(state, tries)
        assert colored <= set(list(gnp_small.nodes())[:5])

    def test_cap_by_slack_hypothesis(self, gnp_small):
        """With tiny palettes the Lemma 6 cap kicks in and the call still works."""
        state = make_state(gnp_small, extra=0)
        colored = multi_trial(state, 64)
        assert state.report().is_proper
        assert isinstance(colored, set)

    def test_huge_color_space(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=200, extra=15, seed=4)
        state = make_state(gnp_small, lists=lists)
        colored = multi_trial(state, 8)
        assert state.report().is_proper
        assert len(colored) > 0
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits


class TestMultiTrialUniform:
    def test_uniform_variant_colors_nodes(self, gnp_small):
        state = make_state(gnp_small, extra=3 * max(d for _, d in gnp_small.degree()),
                           uniform=True)
        colored = multi_trial(state, 8)
        assert len(colored) >= 0.5 * gnp_small.number_of_nodes()
        assert state.report().is_proper

    def test_uniform_variant_never_conflicts(self, gnp_small):
        state = make_state(gnp_small, extra=10, uniform=True)
        for _ in range(3):
            multi_trial(state, 4)
        assert state.report().is_proper

    def test_uniform_bandwidth_respected(self, gnp_small):
        state = make_state(gnp_small, extra=20, uniform=True)
        multi_trial(state, 8)
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits

    def test_uniform_and_representative_use_same_interface(self, gnp_small):
        for uniform in (False, True):
            state = make_state(gnp_small, extra=12, uniform=uniform, seed=7)
            colored = multi_trial(state, 4)
            assert isinstance(colored, set)


class TestMultiTrialProgress:
    def test_repeated_invocations_color_everyone_with_slack(self, gnp_small):
        delta = max(d for _, d in gnp_small.degree())
        state = make_state(gnp_small, extra=2 * delta + 4)
        for _ in range(12):
            if not state.uncolored_nodes():
                break
            multi_trial(state, 8)
        assert len(state.uncolored_nodes()) <= 0.05 * gnp_small.number_of_nodes()
        assert state.report().is_proper


@pytest.mark.parametrize("uniform", [False, True], ids=["representative", "uniform"])
def test_lemma6_success_series(uniform):
    """Lemma 6 (E7): on gnp(120, 0.1) with 3Δ extra colors, one invocation
    with x = 16 colors >= 85% of nodes, no x in 1..16 beats x = 16 by more
    than 0.05, and every invocation takes at most 30 rounds."""
    graph = gnp_graph(120, 0.1, seed=7)
    delta = max(d for _, d in graph.degree())
    fractions, rounds = [], []
    for tries in (1, 2, 4, 8, 16):
        state = make_state(graph, extra=3 * delta, uniform=uniform, seed=100 + tries)
        before = state.network.rounds_used
        colored = multi_trial(state, tries)
        fractions.append(round(len(colored) / graph.number_of_nodes(), 3))
        rounds.append(state.network.rounds_used - before)
    assert fractions[-1] >= 0.85
    assert fractions[-1] >= fractions[0] - 0.05
    assert all(r <= 30 for r in rounds)
