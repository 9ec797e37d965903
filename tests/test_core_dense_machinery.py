"""Tests for leader selection, put-aside sets and SynchColorTrial (App. D.1/D.2, Alg. 13-14)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.congest.topology as topology_module
from repro.congest import Network, Topology
from repro.core import ColoringInstance, ColoringParameters, solve_d1c, validate_coloring
from repro.core.acd import ACDResult, compute_acd
from repro.core.dense_phase import run_dense_phase
from repro.core.leader import select_leaders
from repro.core.putaside import color_put_aside, compute_put_aside
from repro.core.slack import generate_slack
from repro.core.state import ColoringState
from repro.core.synch_trial import synch_color_trial
from repro.graphs import (
    degree_plus_one_lists,
    gnp_fast_graph,
    planted_almost_cliques,
    random_geometric_graph,
)
from leader_checks import reference_leaders


@pytest.fixture
def dense_setup():
    """A planted-clique instance with its ACD, state and leaders precomputed."""
    planted = planted_almost_cliques(
        num_cliques=3, clique_size=14, num_sparse=6, sparse_degree=3, seed=21
    )
    graph = planted.graph
    lists = degree_plus_one_lists(graph, seed=22)
    instance = ColoringInstance.d1lc(graph, lists)
    params = ColoringParameters.small(seed=23)
    network = Network(graph)
    state = ColoringState(instance, network, params)
    acd = compute_acd(network, params)
    leaders = select_leaders(state, acd)
    return planted, state, acd, leaders


class TestLeaderSelection:
    def test_one_leader_per_clique(self, dense_setup):
        _, _, acd, leaders = dense_setup
        assert set(leaders) == set(acd.cliques)
        for cid, info in leaders.items():
            assert info.leader in acd.cliques[cid]

    def test_members_partitioned_into_roles(self, dense_setup):
        _, _, acd, leaders = dense_setup
        for cid, info in leaders.items():
            members = acd.cliques[cid]
            assert info.members == members
            assert info.leader not in info.inliers
            assert info.leader not in info.outliers
            assert not (info.inliers & info.outliers)
            assert info.inliers | info.outliers | {info.leader} == members

    def test_inliers_adjacent_to_leader(self, dense_setup):
        _, state, _, leaders = dense_setup
        for info in leaders.values():
            for v in info.inliers:
                assert v in state.network.neighbors(info.leader)

    def test_leader_minimizes_aggregate(self, dense_setup):
        """Lemma 12: the chosen leader has small e + a + kappa within its clique."""
        _, state, acd, leaders = dense_setup
        for cid, info in leaders.items():
            members = acd.cliques[cid]
            def aggregate(v):
                neighbors = state.network.neighbors(v)
                external = len(neighbors - members)
                anti = max(0, len(members) - 1 - len(neighbors & members))
                return external + anti + state.chromatic_slack[v]
            best = min(aggregate(v) for v in members)
            assert aggregate(info.leader) == best

    def test_slackability_estimate_nonnegative(self, dense_setup):
        _, _, _, leaders = dense_setup
        assert all(info.slackability_estimate >= 0 for info in leaders.values())

    def test_planted_cliques_are_low_slack(self, dense_setup):
        """Planted near-cliques have tiny sparsity, hence low slackability."""
        _, _, _, leaders = dense_setup
        assert all(info.low_slack for info in leaders.values())

    @pytest.mark.parametrize("dropout", [0.05, 0.15])
    def test_leader_after_slack_generation(self, dropout):
        """Lemma 12 (E14): with slack generated first, on 3 planted 18-cliques
        the leader exactly minimises e + a + κ and every clique is low-slack."""
        planted = planted_almost_cliques(
            num_cliques=3, clique_size=18, num_sparse=8, dropout=dropout,
            seed=int(dropout * 100),
        )
        graph = planted.graph
        params = ColoringParameters.small(seed=14)
        network = Network(graph)
        state = ColoringState(
            ColoringInstance.d1lc(graph, degree_plus_one_lists(graph, seed=1)),
            network, params,
        )
        acd = compute_acd(network, params)
        generate_slack(state, state.network.nodes)
        leaders = select_leaders(state, acd)
        for cid, info in leaders.items():
            members = acd.cliques[cid]

            def aggregate(v):
                neighbors = network.neighbors(v)
                return (len(neighbors - members)
                        + max(0, len(members) - 1 - len(neighbors & members))
                        + state.chromatic_slack[v])
            assert aggregate(info.leader) == min(aggregate(v) for v in members)
            assert info.low_slack

    def test_clique_ids_fit_the_announced_universe(self):
        """The ACD disbands components of two nodes or fewer after numbering
        them; on this geometric graph the one survivor was found fourth, so
        unless survivors are renumbered its id (3) overflows the clique-id
        universe of ``len(cliques) + 1`` and ``integer_message`` rejects it."""
        graph = random_geometric_graph(70, 0.2, seed=1)
        params = ColoringParameters.small(seed=1)
        network = Network(graph)
        state = ColoringState(ColoringInstance.d1c(graph), network, params)
        acd = compute_acd(network, params)
        assert list(acd.cliques) == [0]
        assert acd.clique_of == {v: 0 for v in acd.cliques[0]}
        assert set(select_leaders(state, acd)) == {0}

    def test_empty_acd_gives_no_leaders(self, gnp_small, small_params):
        instance = ColoringInstance.d1c(gnp_small)
        network = Network(gnp_small)
        state = ColoringState(instance, network, small_params)
        acd = compute_acd(network, small_params, active=set())
        assert select_leaders(state, acd) == {}


def _ring(draw):
    count, size = draw(st.integers(2, 5)), draw(st.integers(3, 8))
    graph = nx.ring_of_cliques(count, size)
    return graph, [set(range(i * size, (i + 1) * size)) for i in range(count)]


def _planted(draw):
    planted = planted_almost_cliques(
        num_cliques=draw(st.integers(1, 3)), clique_size=draw(st.integers(3, 12)),
        dropout=draw(st.sampled_from([0.0, 0.2, 0.4])), num_sparse=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 99)))
    return planted.graph, [set(c) for c in planted.cliques]


def _cliques_missing_edges(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    graph = nx.disjoint_union_all([nx.complete_graph(size) for size in sizes])
    edges = list(graph.edges())
    if edges:
        graph.remove_edges_from(draw(st.lists(st.sampled_from(edges), unique=True,
                                              max_size=len(edges) // 2)))
    cliques, start = [], 0
    for size in sizes:
        cliques.append(set(range(start, start + size)))
        start += size
    # A few edges between the groups: external degree.
    nodes = list(graph)
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if u != v:
            graph.add_edge(u, v)
    return graph, cliques


LEADER_GRAPHS = {
    "ring-of-cliques": _ring,
    "planted": _planted,
    "cliques-missing-edges": _cliques_missing_edges,
}
LEADER_LABELS = {
    "int": lambda v: v,
    "big-int": lambda v: 1024 * v + 7,  # hashes collide in small sets
    "str": lambda v: f"n{v}",
    "tuple": lambda v: (v % 3, str(v)),
}


@st.composite
def leader_inputs(draw):
    """A graph with groups as almost-cliques (in a drawn order), reinserted
    in a drawn node order and relabelled, and a chromatic slack per node."""
    graph, groups = LEADER_GRAPHS[draw(st.sampled_from(sorted(LEADER_GRAPHS)))](draw)
    label = LEADER_LABELS[draw(st.sampled_from(sorted(LEADER_LABELS)))]
    shuffled = nx.Graph()
    shuffled.add_nodes_from(label(v) for v in draw(st.permutations(list(graph))))
    shuffled.add_edges_from((label(u), label(v)) for u, v in graph.edges())
    groups = draw(st.permutations([{label(v) for v in group} for group in groups]))
    # Few distinct values, so scores tie.
    slack = {v: draw(st.integers(0, 2)) for v in shuffled}
    return shuffled, groups, slack


class TestLeadersOnTheCsr:
    """``select_leaders``' CSR reductions against the per-node intersections
    it replaced (``tests/leader_checks.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=leader_inputs())
    def test_matches_the_per_node_reference(self, inputs):
        graph, groups, slack = inputs
        network = Network(graph)
        state = ColoringState(ColoringInstance.d1c(graph), network,
                              ColoringParameters.small(seed=1))
        state.chromatic_slack.update(slack)
        clique_of = {v: cid for cid, group in enumerate(groups) for v in group}
        acd = ACDResult(sparse_nodes=set(graph) - set(clique_of), uneven_nodes=set(),
                        cliques=dict(enumerate(groups)), clique_of=clique_of,
                        friend_pairs=np.zeros((0, 2), dtype=np.int64))
        want = reference_leaders(state, acd)
        got = select_leaders(state, acd)
        assert list(got) == list(want)
        for cid, info in got.items():
            assert info == want[cid]
            # Insertion order too: the dense phase iterates these sets.
            assert list(info.inliers) == list(want[cid].inliers)
            assert list(info.outliers) == list(want[cid].outliers)

    def test_reads_no_neighbour_set(self, dense_setup, monkeypatch):
        _, state, acd, _ = dense_setup
        calls = []
        for owner in (Network, Topology):
            monkeypatch.setattr(owner, "neighbors", lambda self, v, _read=owner.neighbors:
                                calls.append(v) or _read(self, v))
        assert set(select_leaders(state, acd)) == set(acd.cliques)
        assert calls == []


@pytest.mark.parametrize("seed", [0, 1])
def test_a_columnar_d1c_solve_builds_few_neighbour_sets(seed, monkeypatch):
    """The columnar path reads the CSR: under a tenth of the nodes get a set."""
    built = []
    monkeypatch.setattr(topology_module, "frozenset",
                        lambda items: built.append(1) or frozenset(items), raising=False)
    result = solve_d1c(gnp_fast_graph(2000, avg_degree=8, seed=seed), seed=seed)
    assert result.report.is_valid
    assert len(built) < 200


class TestPutAside:
    def test_put_aside_only_in_low_slack_cliques(self, dense_setup):
        _, state, _, leaders = dense_setup
        generate_slack(state, state.network.nodes)
        put_aside = compute_put_aside(state, leaders)
        for cid in put_aside:
            assert leaders[cid].low_slack

    def test_put_aside_members_are_uncolored_inliers(self, dense_setup):
        _, state, _, leaders = dense_setup
        generate_slack(state, state.network.nodes)
        put_aside = compute_put_aside(state, leaders)
        for cid, members in put_aside.items():
            assert members <= leaders[cid].inliers
            assert all(not state.is_colored(v) for v in members)

    def test_put_aside_sets_mutually_non_adjacent(self, dense_setup):
        """Algorithm 13: no edges between put-aside sets of different cliques."""
        _, state, _, leaders = dense_setup
        put_aside = compute_put_aside(state, leaders)
        for cid, members in put_aside.items():
            for other_cid, other_members in put_aside.items():
                if cid == other_cid:
                    continue
                for v in members:
                    assert not (state.network.neighbors(v) & other_members)

    def test_put_aside_size_bounded_by_ell(self, dense_setup):
        _, state, _, leaders = dense_setup
        put_aside = compute_put_aside(state, leaders)
        ell = state.params.ell(state.instance.max_degree())
        for members in put_aside.values():
            assert len(members) <= 2 * ell + 1

    def test_color_put_aside_completes_and_stays_proper(self, dense_setup):
        _, state, _, leaders = dense_setup
        put_aside = compute_put_aside(state, leaders)
        colored = color_put_aside(state, leaders, put_aside)
        all_put_aside = set().union(*put_aside.values()) if put_aside else set()
        assert colored == all_put_aside
        assert validate_coloring(state.instance, state.colors).is_proper

    @pytest.mark.parametrize("clique_size", [16, 24])
    def test_put_aside_through_the_dense_phase(self, clique_size):
        """Algorithm 13 (E15): on 3 planted cliques, the mean put-aside set is
        at most 2ℓ + 1, put-aside sets of different cliques are non-adjacent,
        and the dense phase colors every put-aside node properly."""
        planted = planted_almost_cliques(
            num_cliques=3, clique_size=clique_size, num_sparse=6, seed=clique_size
        )
        graph = planted.graph
        params = ColoringParameters.small(seed=15)
        network = Network(graph)
        state = ColoringState(
            ColoringInstance.d1lc(graph, degree_plus_one_lists(graph, seed=2)),
            network, params,
        )
        acd = compute_acd(network, params)
        leaders = select_leaders(state, acd)
        generate_slack(state, acd.dense_nodes)
        put_aside = compute_put_aside(state, leaders)
        ell = params.ell(state.instance.max_degree())
        mean_size = sum(len(m) for m in put_aside.values()) / max(1, len(put_aside))
        assert round(mean_size, 1) <= round(2 * ell, 1) + 1
        for cid, members in put_aside.items():
            for other_cid, other_members in put_aside.items():
                if cid != other_cid:
                    assert not any(network.neighbors(v) & other_members
                                   for v in members)

        outcome = run_dense_phase(state, acd)
        put_aside_nodes = set().union(*outcome.put_aside.values()) if outcome.put_aside else set()
        assert all(state.is_colored(v) for v in put_aside_nodes)
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_no_low_slack_cliques_gives_empty_result(self, gnp_small, small_params):
        instance = ColoringInstance.d1c(gnp_small)
        network = Network(gnp_small)
        state = ColoringState(instance, network, small_params)
        assert compute_put_aside(state, {}) == {}


class TestSynchColorTrial:
    def test_trial_colors_some_inliers(self, dense_setup):
        _, state, _, leaders = dense_setup
        colored = synch_color_trial(state, leaders)
        assert len(colored) > 0
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_no_in_clique_conflicts(self, dense_setup):
        """The dealt colors are distinct, so in-clique conflicts are impossible."""
        _, state, acd, leaders = dense_setup
        synch_color_trial(state, leaders)
        for members in acd.cliques.values():
            colored_members = [v for v in members if state.is_colored(v)]
            colors = [state.colors[v] for v in colored_members]
            assert len(colors) == len(set(colors))

    def test_excluded_nodes_not_colored(self, dense_setup):
        _, state, _, leaders = dense_setup
        some_clique = next(iter(leaders.values()))
        excluded = set(list(some_clique.inliers)[:3])
        colored = synch_color_trial(state, leaders, exclude=excluded)
        assert not (colored & excluded)

    def test_constant_rounds(self, dense_setup):
        _, state, _, leaders = dense_setup
        before = state.network.rounds_used
        synch_color_trial(state, leaders)
        assert state.network.rounds_used - before <= 4
