"""Tests for problem instances, color spaces, parameters and validation."""

import dataclasses
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Topology
from repro.core import ColoringInstance, ColoringParameters, ColorSpace, validate_coloring
from repro.core.params import ELL_EXPONENT, MULTITRIAL_ALPHA, MULTITRIAL_BETA, SLACK_PROBABILITY
from repro.graphs import degree_plus_one_lists
from topology_checks import reference_validation


class TestColorSpace:
    def test_numeric(self):
        space = ColorSpace.numeric(16)
        assert space.size == 16
        assert space.bits == 4

    def test_from_colors_numeric(self):
        space = ColorSpace.from_colors({0, 5, 9})
        assert space.size == 10
        assert space.bits == 4

    def test_from_colors_symbolic(self):
        space = ColorSpace.from_colors({"red", "green", "blue"})
        assert space.size == 3

    def test_huge(self):
        space = ColorSpace(bits=500)
        assert space.size is None
        assert not space.fits_in(64)

    def test_fits_in(self):
        assert ColorSpace.numeric(16).fits_in(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ColorSpace(bits=0)
        with pytest.raises(ValueError):
            ColorSpace(bits=4, size=1)


class TestColoringInstance:
    def test_d1c_palettes(self, gnp_small):
        instance = ColoringInstance.d1c(gnp_small)
        for v in gnp_small.nodes():
            assert instance.palettes[v] == frozenset(range(gnp_small.degree(v) + 1))

    def test_delta_plus_one_palettes(self, gnp_small):
        instance = ColoringInstance.delta_plus_one(gnp_small)
        delta = instance.max_degree()
        assert all(len(p) == delta + 1 for p in instance.palettes.values())

    def test_d1lc_accepts_valid_lists(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=1)
        instance = ColoringInstance.d1lc(gnp_small, lists)
        assert instance.color_space.size is not None

    def test_d1lc_rejects_short_lists(self):
        g = nx.complete_graph(4)
        lists = {v: {0} for v in g.nodes()}
        with pytest.raises(ValueError):
            ColoringInstance.d1lc(g, lists)

    def test_missing_palette_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            ColoringInstance(graph=g, palettes={0: frozenset({0, 1})},
                             color_space=ColorSpace.numeric(4))

    def test_max_degree(self, gnp_small):
        instance = ColoringInstance.d1c(gnp_small)
        assert instance.max_degree() == max(d for _, d in gnp_small.degree())

    @pytest.mark.parametrize("graph", [nx.Graph(), nx.empty_graph(3), nx.star_graph(5)],
                             ids=["empty", "edgeless", "star"])
    def test_d1c_shares_one_palette_per_degree(self, graph):
        instance = ColoringInstance.d1c(graph)
        degrees = dict(graph.degree())
        assert instance.palettes == {v: frozenset(range(d + 1)) for v, d in degrees.items()}
        assert len({id(p) for p in instance.palettes.values()}) == len(set(degrees.values()))
        assert instance.max_degree() == max(degrees.values(), default=0)
        assert instance.color_space == ColorSpace.numeric(max(degrees.values(), default=1) + 1)


class TestValidateColoring:
    def test_valid_complete_coloring(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0, 1: 1, 2: 0})
        assert report.is_valid
        assert report.is_complete and report.is_proper

    def test_conflict_detected(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0, 1: 0, 2: 1})
        assert not report.is_proper
        assert (0, 1) in report.conflicts

    def test_partial_coloring(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 0})
        assert not report.is_complete
        assert report.is_proper
        assert set(report.uncolored) == {1, 2}

    def test_palette_violation(self):
        g = nx.path_graph(3)
        instance = ColoringInstance.d1c(g)
        report = validate_coloring(instance, {0: 99, 1: 0, 2: 1})
        assert 0 in report.palette_violations
        assert not report.is_valid

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_node_and_edge_walk(self, data):
        """Conflicts in edge-walk order with its ``==`` rule, and uncolored
        nodes and palette violations in node order, with and without a
        topology; colors equal across types (1, 1.0, True) conflict."""
        n = data.draw(st.integers(0, 14))
        labels = data.draw(st.sampled_from([str, lambda i: (i % 2, str(i)), lambda i: i]))
        order = data.draw(st.permutations(range(n)))
        graph = nx.Graph()
        graph.add_nodes_from(labels(i) for i in order)
        pairs = [(labels(i), labels(j)) for i in range(n) for j in range(i)]
        graph.add_edges_from(data.draw(st.lists(st.sampled_from(pairs), unique=True))
                             if pairs else [])
        instance = ColoringInstance.d1c(graph)
        colors = st.sampled_from([None, 0, 1, 1.0, True, 2, 99, "x"])
        coloring = {v: data.draw(colors) for v in graph if data.draw(st.booleans())}
        coloring["not-a-node"] = 0
        want = reference_validation(instance, coloring)
        for topology in (None, Topology(graph)):
            report = validate_coloring(instance, coloring, topology)
            assert (report.uncolored, report.conflicts, report.palette_violations) == want
            assert report.total_nodes == n
            assert report.colored_nodes == n - len(want[0])

    def test_a_proper_coloring_walks_no_edge(self):
        class EdgeWalks(nx.Graph):
            walks = 0

            @property
            def edges(self):
                EdgeWalks.walks += 1
                return super().edges

        graph = EdgeWalks(nx.cycle_graph(6))
        instance = ColoringInstance.d1c(graph)
        assert validate_coloring(instance, {v: v % 2 for v in graph}).is_valid
        assert EdgeWalks.walks == 0
        report = validate_coloring(instance, {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 2})
        assert report.conflicts == [(2, 3)] and EdgeWalks.walks == 1


class TestColoringParameters:
    def test_defaults_match_paper_constants(self):
        assert SLACK_PROBABILITY == pytest.approx(0.1)
        assert MULTITRIAL_ALPHA == pytest.approx(1 / 12)
        assert MULTITRIAL_BETA == pytest.approx(1 / 3)
        assert ELL_EXPONENT == pytest.approx(2.1)

    def test_ell_formula(self):
        params = ColoringParameters()
        assert params.ell(1024) == pytest.approx(10 ** 2.1)

    def test_multitrial_nu_bounded(self):
        params = ColoringParameters()
        nu = params.multitrial_nu(lam=100, n=1000)
        assert 0 < nu <= 0.5

    def test_multitrial_sigma_at_most_lambda(self):
        params = ColoringParameters()
        assert params.multitrial_sigma(lam=50, tries=100, n=1000) <= 50

    def test_multitrial_sigma_grows_with_tries(self):
        params = ColoringParameters()
        assert params.multitrial_sigma(10 ** 6, 64, 1000) >= params.multitrial_sigma(10 ** 6, 1, 1000)

    def test_putaside_probability_clamped(self):
        params = ColoringParameters()
        assert params.putaside_probability(ell=10, clique_degree=1) == 1.0
        assert params.putaside_probability(ell=10, clique_degree=0) == 0.0
        assert 0 < params.putaside_probability(ell=10, clique_degree=10 ** 4) < 1

    def test_presets(self):
        small = ColoringParameters.small(seed=3)
        paper = ColoringParameters.paper(seed=3)
        assert small.seed == paper.seed == 3
        assert small.similarity_sigma_cap is not None
        assert paper.similarity_sigma_cap > small.similarity_sigma_cap
        assert paper.multitrial_sigma_floor > small.multitrial_sigma_floor

    def test_every_tunable_field_differs_between_presets(self):
        """A field both presets set alike is a constant, not a parameter."""
        small, paper = ColoringParameters.small(), ColoringParameters.paper()
        same = [f.name for f in dataclasses.fields(ColoringParameters)
                if f.name not in ("seed", "uniform")
                and getattr(small, f.name) == getattr(paper, f.name)]
        assert same == []

    def test_with_seed(self):
        params = ColoringParameters.small(seed=1).with_seed(9)
        assert params.seed == 9
