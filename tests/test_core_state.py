"""Tests for the coloring state and the large-color handling (Appendix D.3)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, ColorSpace
from repro.core.large_colors import ColorHasher
from repro.core.state import ColoringState
from repro.graphs import huge_color_space_lists
from repro.utils.rng import RngStream


def make_state(graph, params=None, lists=None):
    instance = (
        ColoringInstance.d1c(graph)
        if lists is None
        else ColoringInstance.d1lc(graph, lists)
    )
    network = Network(graph)
    return ColoringState(instance, network, params or ColoringParameters.small(seed=1))


class TestColoringState:
    def test_initially_uncolored(self, gnp_small):
        state = make_state(gnp_small)
        assert state.uncolored_nodes() == set(gnp_small.nodes())
        assert all(not state.is_colored(v) for v in gnp_small.nodes())

    def test_adopt_updates_bookkeeping(self, gnp_small):
        state = make_state(gnp_small)
        v = next(iter(gnp_small.nodes()))
        color = next(iter(state.palettes[v]))
        state.adopt(v, color)
        assert state.is_colored(v)
        assert v not in state.uncolored_nodes()
        assert state.colors[v] == color

    def test_adopt_twice_rejected(self, gnp_small):
        state = make_state(gnp_small)
        v = next(iter(gnp_small.nodes()))
        color = next(iter(state.palettes[v]))
        state.adopt(v, color)
        with pytest.raises(ValueError):
            state.adopt(v, color)

    def test_adopt_color_outside_palette_rejected(self, gnp_small):
        state = make_state(gnp_small)
        v = next(iter(gnp_small.nodes()))
        with pytest.raises(ValueError):
            state.adopt(v, "not-a-color")

    def test_uncolored_degree_and_slack(self):
        # Uncolored degrees are one CSR reduction over the uncolored mask.
        g = nx.complete_graph(4)
        state = make_state(g)
        uncolored_degree = state.network.topology.neighbor_counts
        assert uncolored_degree([0], state.uncolored_mask).tolist() == [3]
        # Slack: |palette| = 4, uncolored neighbours = 3.
        assert len(state.palettes[0]) - uncolored_degree([0], state.uncolored_mask)[0] == 1
        state.adopt(1, 3)
        assert state.uncolored_mask.tolist() == [True, False, True, True]
        assert uncolored_degree([0, 1], state.uncolored_mask).tolist() == [2, 3]

    def test_remove_from_palette(self):
        g = nx.path_graph(3)
        state = make_state(g)
        value = state.hasher.value_for(0, 1)
        state.remove_from_palette(0, value)
        assert 1 not in state.palettes[0]

    def test_chromatic_slack_tracking(self, gnp_small):
        state = make_state(gnp_small)
        v = next(iter(gnp_small.nodes()))
        state.note_chromatic_slack(v, True)
        state.note_chromatic_slack(v, False)
        assert state.chromatic_slack[v] == 1

    def test_report_reflects_progress(self):
        g = nx.path_graph(3)
        state = make_state(g)
        assert state.report().colored_nodes == 0
        state.adopt(0, 0)
        assert state.report().colored_nodes == 1


class TestColorHasher:
    def test_direct_mode_for_small_spaces(self, gnp_small):
        state = make_state(gnp_small)
        assert state.hasher.mode == "direct"
        assert state.hasher.value_for(0, 3) == 3

    @pytest.mark.parametrize("excess,mode", [(0, "direct"), (1, "hashed")],
                             ids=["at-budget-direct", "one-bit-over-hashed"])
    def test_mode_switches_at_the_bandwidth_budget(self, gnp_small, excess, mode):
        network = Network(gnp_small, bandwidth_bits=120)
        space = ColorSpace.huge(network.bandwidth_bits + excess)
        hasher = ColorHasher(network, space, ColoringParameters.small(seed=1),
                             RngStream(1))
        assert hasher.mode == mode
        assert (hasher.family is None) is (mode == "direct")

    def test_hashed_mode_for_huge_spaces(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=2)
        state = make_state(gnp_small, lists=lists)
        assert state.hasher.mode == "hashed"

    def test_hashed_setup_costs_one_round(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=2)
        instance = ColoringInstance.d1lc(gnp_small, lists)
        network = Network(gnp_small)
        ColoringState(instance, network, ColoringParameters.small(seed=1))
        assert network.rounds_used == 1

    def test_direct_setup_costs_nothing(self, gnp_small):
        instance = ColoringInstance.d1c(gnp_small)
        network = Network(gnp_small)
        ColoringState(instance, network, ColoringParameters.small(seed=1))
        assert network.rounds_used == 0

    def test_hashed_encoding_fits_bandwidth(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=3)
        state = make_state(gnp_small, lists=lists)
        v = next(iter(gnp_small.nodes()))
        color = next(iter(state.palettes[v]))
        message = state.hasher.encode_for(v, color)
        assert message.bits <= state.network.bandwidth_bits
        assert message.bits < 300

    def test_hashed_matching_identifies_own_color(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=4)
        state = make_state(gnp_small, lists=lists)
        v = next(iter(gnp_small.nodes()))
        color = next(iter(state.palettes[v]))
        value = state.hasher.value_for(v, color)
        assert state.hasher.matching_colors(v, state.palettes[v], value) == [color]

    def test_hashed_no_collisions_within_neighborhood_palettes(self, gnp_small):
        """The Appendix D.3 guarantee: distinct relevant colors rarely collide."""
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=5)
        state = make_state(gnp_small, lists=lists)
        collisions = 0
        for v in gnp_small.nodes():
            relevant = set(state.palettes[v])
            for u in gnp_small.neighbors(v):
                relevant |= state.palettes[u]
            values = [state.hasher.value_for(v, c) for c in relevant]
            collisions += len(values) - len(set(values))
        assert collisions == 0

    def test_remove_matching_prunes_only_matching_color(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=300, seed=6)
        state = make_state(gnp_small, lists=lists)
        v = next(iter(gnp_small.nodes()))
        palette = state.palettes[v]
        target = next(iter(palette))
        before = len(palette)
        state.remove_from_palette(v, state.hasher.value_for(v, target))
        assert target not in palette
        assert len(palette) == before - 1


#: Colors of mixed kinds, as list-coloring palettes may hold them.
COLORS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=4), st.text(max_size=2)),
)


class TestMatchingColors:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_direct_lookup_equals_the_scan_it_replaces(self, data):
        hasher = make_state(nx.path_graph(3)).hasher
        assert hasher.mode == "direct"
        palette = data.draw(st.sets(COLORS, max_size=12))
        palette = data.draw(st.sampled_from([set, frozenset]))(palette)
        # Present values and (mostly absent) arbitrary ones alike.
        present = st.sampled_from(sorted(palette, key=repr)) if palette else COLORS
        value = data.draw(st.one_of(present, COLORS))
        scan = [color for color in palette if hasher.value_for(0, color) == value]
        assert list(hasher.matching_colors(0, palette, value)) == scan
