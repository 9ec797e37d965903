"""Tests for TryColor / TryRandomColor / GenerateSlack (Algorithms 10-12)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, solve_d1c, validate_coloring
from repro.core.problem import ColorSpace
from repro.core.slack import announce_adoptions, generate_slack, try_color, try_random_color
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
        assert validate_coloring(state.instance, state.colors).is_valid

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
        assert validate_coloring(state.instance, state.colors).is_proper

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
        assert validate_coloring(state.instance, state.colors).is_proper
        assert state.network.ledger.max_edge_bits <= state.network.bandwidth_bits


class TestTryRandomColor:
    def test_colors_most_nodes_on_easy_instances(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=5)
        state = make_state(gnp_small, lists=lists)
        colored = try_random_color(state, gnp_small.nodes())
        assert len(colored) >= 0.3 * gnp_small.number_of_nodes()
        assert validate_coloring(state.instance, state.colors).is_proper

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
        colored = generate_slack(state, state.network.nodes)
        n = gnp_medium.number_of_nodes()
        # At most p_g fraction participate, so at most that many get colored.
        assert len(colored) <= 0.3 * n
        assert validate_coloring(state.instance, state.colors).is_proper

    def test_generates_chromatic_slack_on_list_instances(self, gnp_medium):
        lists = degree_plus_one_lists(gnp_medium, seed=7)
        state = make_state(gnp_medium, lists=lists, seed=3)
        generate_slack(state, state.network.nodes)
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
        """Every direct-mode ``:propose``/``:adopt`` round of a solve is one
        ``broadcast`` call with ``bits`` (or a silent round), and none is an
        exchange or a broadcast sized by ``payload_bits``."""
        methods = ("exchange", "broadcast", "broadcast_discard", "exchange_chunked",
                   "broadcast_chunked", "charge_silent_round")
        rounds_by_method = {method: [] for method in methods + ("broadcast with bits",)}
        for method in methods:
            original = getattr(Network, method)

            def spy(self, *args, _original=original, _method=method, **kwargs):
                before = len(self.ledger.records)
                result = _original(self, *args, **kwargs)
                sized = kwargs.get("bits", args[2] if len(args) > 2 else None) is not None
                seen = rounds_by_method[
                    "broadcast with bits" if _method == "broadcast" and sized else _method]
                seen.extend(record.label for record in self.ledger.records[before:])
                return result

            monkeypatch.setattr(Network, method, spy)
        networks = []
        original_init = Network.__init__

        def keep(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            networks.append(self)

        monkeypatch.setattr(Network, "__init__", keep)
        result = solve_d1c(gnp_graph(80, 0.1, seed=2), seed=5, backend=backend)
        assert result.is_valid and result.mode == "congest"
        (network,) = networks
        assert network.backend == backend

        def color_rounds(labels):
            return [label for label in labels if label.endswith((":propose", ":adopt"))]

        columns = color_rounds(rounds_by_method.pop("broadcast with bits"))
        silent = color_rounds(rounds_by_method.pop("charge_silent_round"))
        assert columns
        assert not [label for labels in rounds_by_method.values()
                    for label in color_rounds(labels)]
        # No color round bypasses the spied primitives.
        assert len(columns) + len(silent) == len(color_rounds(
            record.label for record in network.ledger.records
        ))


#: Small graphs for the color-round fuzz: no node, isolated nodes, a star,
#: a clique and a sparse random graph.
FUZZ_GRAPHS = {
    "empty": lambda: nx.empty_graph(0),
    "isolated": lambda: nx.empty_graph(4),
    "star": lambda: nx.star_graph(5),
    "clique": lambda: nx.complete_graph(5),
    "gnp": lambda: gnp_graph(12, 0.3, seed=4),
}

#: A color outside every fuzzed palette.
OUTSIDE = 99


@st.composite
def color_round_inputs(draw):
    graph = FUZZ_GRAPHS[draw(st.sampled_from(sorted(FUZZ_GRAPHS)))]()
    nodes = list(graph.nodes())
    # Palettes from a small shared pool, so neighbours often collide.
    lists = {
        v: draw(st.sets(st.integers(0, graph.degree(v) + 2),
                        min_size=graph.degree(v) + 1))
        for v in nodes
    }
    precolored = {
        v: draw(st.sampled_from(sorted(lists[v])))
        for v in draw(st.sets(st.sampled_from(nodes)))
    } if nodes else {}
    # Proposals from any node (colored ones included), inside or outside
    # the proposer's palette; the palette minimum makes neighbours collide.
    proposals = {
        v: draw(st.just(min(lists[v])) | st.sampled_from(sorted(lists[v] | {OUTSIDE})))
        for v in draw(st.lists(st.sampled_from(nodes), unique=True))
    } if nodes else {}
    # Few ranks, so equal-priority conflicts are common.
    priority = draw(st.none() | st.fixed_dictionaries(
        {v: st.integers(0, 1) for v in nodes}
    ))
    return {
        "graph": graph,
        "lists": lists,
        "precolored": precolored,
        "proposals": proposals,
        "priority": priority,
        "track": draw(st.booleans()),
        "hashed": draw(st.booleans()),
        "announce_share": draw(st.floats(0, 1)),
    }


def fuzz_state(inputs, backend):
    graph = inputs["graph"]
    # A color space wider than the budget sends every color hashed.
    space = ColorSpace(bits=400) if inputs["hashed"] else None
    instance = ColoringInstance.d1lc(graph, inputs["lists"], color_space=space)
    state = ColoringState(instance, Network(graph, backend=backend),
                          ColoringParameters.small(seed=3))
    assert state.hasher.mode == ("hashed" if inputs["hashed"] else "direct")
    for v, color in inputs["precolored"].items():
        state.adopt(v, color)
    return state


def snapshot(state):
    return (dict(state.colors),
            {v: sorted(palette) for v, palette in state.palettes.items()},
            dict(state.chromatic_slack),
            state.uncolored_mask.tolist())


def reference_try_color(state, proposals, priority, track):
    """TryColor by the per-node loops the delivery columns replace."""
    hasher = state.hasher
    graph = state.instance.graph
    proposals = {v: c for v, c in proposals.items()
                 if not state.is_colored(v) and c in state.palettes[v]}
    adopted = {}
    for v, color in proposals.items():
        if not any(
            u in proposals
            and (priority is None or priority.get(u, 0) <= priority.get(v, 0))
            and hasher.value_for(v, proposals[u]) == hasher.value_for(v, color)
            for u in graph.neighbors(v)
        ):
            adopted[v] = color
    for v, color in adopted.items():
        state.adopt(v, color)
    reference_announce(state, adopted, track)
    return set(adopted)


def reference_announce(state, adopted, track):
    hasher = state.hasher
    for u, color in adopted.items():
        for w in state.instance.graph.neighbors(u):
            if state.is_colored(w):
                continue
            value = hasher.value_for(w, color)
            if track and not hasher.matching_colors(w, state.instance.palettes[w], value):
                state.chromatic_slack[w] += 1
            for match in list(hasher.matching_colors(w, state.palettes[w], value)):
                state.palettes[w].discard(match)


class TestColorRoundsMatchTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(inputs=color_round_inputs())
    def test_try_color_and_announce_agree_across_backends(self, inputs):
        """``dict`` and ``columnar`` give the same adopted sets, palettes, κ
        and ledger records, and both match the per-node reference loops."""
        outcomes = {}
        for backend in ("dict", "columnar"):
            state = fuzz_state(inputs, backend)
            adopted = try_color(state, inputs["proposals"], priority=inputs["priority"],
                                label="fuzz", track_chromatic_slack=inputs["track"])
            # Then a bare announcement of palette colors by some uncolored nodes.
            uncolored = sorted(state.uncolored_nodes(), key=repr)
            announced = {
                v: min(state.palettes[v])
                for v in uncolored[:int(inputs["announce_share"] * len(uncolored))]
                if state.palettes[v]
            }
            for v, color in announced.items():
                state.adopt(v, color)
            announce_adoptions(state, announced, label="fuzz-announce",
                               track_chromatic_slack=inputs["track"])
            outcomes[backend] = (adopted, announced, snapshot(state),
                                 state.network.ledger.records)
        assert outcomes["columnar"] == outcomes["dict"]

        adopted, announced, after, _records = outcomes["dict"]
        reference = fuzz_state(inputs, "dict")
        assert reference_try_color(reference, inputs["proposals"], inputs["priority"],
                                   inputs["track"]) == adopted
        for v, color in announced.items():
            reference.adopt(v, color)
        reference_announce(reference, announced, inputs["track"])
        assert snapshot(reference) == after
