"""Tests for the sparse and dense phases (Algorithms 8 and 9)."""

import networkx as nx
import pytest

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, validate_coloring
from repro.core.acd import compute_acd
from repro.core.dense_phase import run_dense_phase
from repro.core.sparse_phase import run_sparse_phase
from repro.core.state import ColoringState
from repro.graphs import degree_plus_one_lists, planted_almost_cliques
from repro.graphs.generators import locally_sparse_graph


def build(graph, seed=1, lists=None):
    lists = lists or degree_plus_one_lists(graph, seed=seed)
    instance = ColoringInstance.d1lc(graph, lists)
    params = ColoringParameters.small(seed=seed)
    network = Network(graph)
    state = ColoringState(instance, network, params)
    acd = compute_acd(network, params)
    return state, acd


class TestSparsePhase:
    def test_colors_most_sparse_nodes(self):
        g = locally_sparse_graph(80, degree=8, seed=2)
        state, acd = build(g, seed=2)
        outcome = run_sparse_phase(state, acd)
        targets = acd.sparse_nodes | acd.uneven_nodes
        colored_targets = {v for v in targets if state.is_colored(v)}
        assert len(colored_targets) >= 0.85 * len(targets)
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_leftover_consistent(self):
        g = locally_sparse_graph(60, degree=6, seed=3)
        state, acd = build(g, seed=3)
        outcome = run_sparse_phase(state, acd)
        assert all(not state.is_colored(v) for v in outcome.leftover)
        assert outcome.colored.isdisjoint(outcome.leftover)

    def test_does_not_touch_dense_nodes(self, planted_graph):
        state, acd = build(planted_graph, seed=4)
        run_sparse_phase(state, acd)
        for v in acd.dense_nodes:
            assert not state.is_colored(v)

    def test_start_and_bad_sets_are_sparse_or_uneven(self):
        g = locally_sparse_graph(60, degree=6, seed=5)
        state, acd = build(g, seed=5)
        outcome = run_sparse_phase(state, acd)
        targets = acd.sparse_nodes | acd.uneven_nodes
        assert outcome.start_set <= targets
        assert outcome.bad_set <= targets

    def test_empty_target_set_is_noop(self):
        g = nx.complete_graph(15)
        state, acd = build(g, seed=6)
        if not (acd.sparse_nodes | acd.uneven_nodes):
            outcome = run_sparse_phase(state, acd)
            assert not outcome.colored


class TestDensePhase:
    def test_colors_planted_cliques(self, planted_graph):
        state, acd = build(planted_graph, seed=7)
        outcome = run_dense_phase(state, acd)
        colored_dense = {v for v in acd.dense_nodes if state.is_colored(v)}
        assert len(colored_dense) >= 0.9 * len(acd.dense_nodes)
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_outcome_structures_populated(self, planted_graph):
        state, acd = build(planted_graph, seed=8)
        outcome = run_dense_phase(state, acd)
        assert set(outcome.leaders) == set(acd.cliques)
        assert outcome.colored
        assert all(not state.is_colored(v) for v in outcome.leftover)

    def test_noop_without_dense_nodes(self):
        g = locally_sparse_graph(40, degree=5, seed=9)
        state, acd = build(g, seed=9)
        assert not acd.dense_nodes
        outcome = run_dense_phase(state, acd)
        assert not outcome.colored and not outcome.leftover

    def test_put_aside_nodes_end_up_colored(self, planted_graph):
        state, acd = build(planted_graph, seed=10)
        outcome = run_dense_phase(state, acd)
        for members in outcome.put_aside.values():
            assert all(state.is_colored(v) for v in members)

    def test_phases_compose(self, planted_graph):
        """Sparse then dense phase leaves only a small leftover overall."""
        state, acd = build(planted_graph, seed=11)
        run_sparse_phase(state, acd)
        run_dense_phase(state, acd)
        assert len(state.uncolored_nodes()) <= 0.15 * planted_graph.number_of_nodes()
        assert validate_coloring(state.instance, state.colors).is_proper
