"""Tests for graph generators, palette generators and exact properties."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    degree_plus_one_lists,
    exact_global_sparsity,
    exact_local_sparsity,
    four_cycle_rich_graph,
    gnp_fast_graph,
    gnp_graph,
    huge_color_space_lists,
    locally_sparse_graph,
    neighborhood_edge_count,
    numeric_degree_lists,
    planted_almost_cliques,
    power_law_graph,
    random_geometric_graph,
    random_regular_graph,
    ring_of_cliques,
    shared_pool_lists,
    triangle_rich_graph,
    validate_acd,
)
from repro.graphs.properties import unevenness
from acd_checks import acd_report_is_clean


class TestGenerators:
    def test_gnp_deterministic(self):
        a = gnp_graph(30, 0.2, seed=1)
        b = gnp_graph(30, 0.2, seed=1)
        assert set(a.edges()) == set(b.edges())

    def test_gnp_validation(self):
        with pytest.raises(ValueError):
            gnp_graph(0, 0.5)
        with pytest.raises(ValueError):
            gnp_graph(10, 1.5)

    def test_power_law_has_skewed_degrees(self):
        g = power_law_graph(200, 3, seed=2)
        degrees = sorted((d for _, d in g.degree()), reverse=True)
        assert degrees[0] >= 3 * degrees[len(degrees) // 2]

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            power_law_graph(3)

    def test_random_regular(self):
        g = random_regular_graph(20, 4, seed=3)
        assert all(d == 4 for _, d in g.degree())

    def test_random_regular_odd_product_rejected(self):
        # Regression: n * degree odd used to silently return an (n+1)-node
        # graph instead of failing on the impossible parameter combination.
        with pytest.raises(ValueError, match="must be even"):
            random_regular_graph(21, 3, seed=3)
        with pytest.raises(ValueError, match="degree must be below n"):
            random_regular_graph(4, 5)

    def test_random_geometric_deterministic(self):
        a = random_geometric_graph(40, radius=0.25, seed=5)
        b = random_geometric_graph(40, radius=0.25, seed=5)
        assert a.number_of_nodes() == 40
        assert set(a.edges()) == set(b.edges())
        assert set(a.edges()) != set(random_geometric_graph(40, radius=0.25, seed=6).edges())

    def test_random_geometric_validation(self):
        with pytest.raises(ValueError):
            random_geometric_graph(0, 0.2)
        with pytest.raises(ValueError):
            random_geometric_graph(10, 0.0)
        with pytest.raises(ValueError):
            random_geometric_graph(10, 2.0)

    def test_planted_cliques_structure(self):
        planted = planted_almost_cliques(num_cliques=3, clique_size=10, num_sparse=5, seed=5)
        assert len(planted.cliques) == 3
        assert all(len(c) == 10 for c in planted.cliques)
        assert len(planted.sparse_nodes) == 5
        # Planted members are densely connected inside their clique.
        for members in planted.cliques:
            sub = planted.graph.subgraph(members)
            possible = len(members) * (len(members) - 1) / 2
            assert sub.number_of_edges() >= 0.8 * possible

    def test_planted_validation(self):
        with pytest.raises(ValueError):
            planted_almost_cliques(num_cliques=0)
        with pytest.raises(ValueError):
            planted_almost_cliques(dropout=0.9)

    def test_ring_of_cliques(self):
        g = ring_of_cliques(4, 5)
        assert g.number_of_nodes() == 20

    def test_triangle_rich_graph_ground_truth(self):
        planted = triangle_rich_graph(n=60, planted_cliques=2, clique_size=8, seed=7)
        for (u, v) in list(planted.rich_edges)[:10]:
            assert planted.graph.has_edge(u, v)

    def test_four_cycle_rich_graph(self):
        planted = four_cycle_rich_graph(n=60, planted_blocks=1, side_size=6, seed=8)
        assert len(planted.rich_centers) == 12

    def test_locally_sparse_graph_is_triangle_light(self):
        g = locally_sparse_graph(60, degree=6, seed=9)
        triangles = sum(nx.triangles(g).values())
        assert triangles == 0  # bipartite


class TestLists:
    def test_numeric_degree_lists(self, gnp_small):
        lists = numeric_degree_lists(gnp_small)
        for v in gnp_small.nodes():
            assert lists[v] == set(range(gnp_small.degree(v) + 1))

    def test_numeric_degree_lists_extra(self, gnp_small):
        lists = numeric_degree_lists(gnp_small, extra=3)
        for v in gnp_small.nodes():
            assert len(lists[v]) == gnp_small.degree(v) + 4

    def test_degree_plus_one_lists_sizes(self, gnp_small):
        lists = degree_plus_one_lists(gnp_small, seed=1)
        for v in gnp_small.nodes():
            assert len(lists[v]) == gnp_small.degree(v) + 1

    def test_degree_plus_one_lists_space_too_small(self, gnp_small):
        with pytest.raises(ValueError):
            degree_plus_one_lists(gnp_small, color_space_size=2)

    def test_huge_color_space_lists(self, gnp_small):
        lists = huge_color_space_lists(gnp_small, color_space_bits=60, seed=2)
        all_colors = set().union(*lists.values())
        assert max(all_colors) > 2 ** 40
        for v in gnp_small.nodes():
            assert len(lists[v]) == gnp_small.degree(v) + 1

    def test_huge_color_space_validation(self, gnp_small):
        with pytest.raises(ValueError):
            huge_color_space_lists(gnp_small, color_space_bits=8)

    def test_shared_pool_lists_conflict_heavy(self, gnp_small):
        lists = shared_pool_lists(gnp_small, seed=3)
        pool = set().union(*lists.values())
        delta = max(d for _, d in gnp_small.degree())
        assert len(pool) <= delta + 2


class TestProperties:
    def test_neighborhood_edge_count_clique(self):
        g = nx.complete_graph(5)
        assert neighborhood_edge_count(g, 0) == 6  # K4 among the neighbours

    def test_exact_sparsity_clique_is_zero(self):
        g = nx.complete_graph(10)
        assert exact_local_sparsity(g, 0) == pytest.approx(0.0)
        assert exact_global_sparsity(g, 0) == pytest.approx(0.0)

    def test_exact_sparsity_star_center(self):
        g = nx.star_graph(10)
        assert exact_local_sparsity(g, 0) == pytest.approx((10 - 1) / 2)

    def test_unevenness_of_leaf(self):
        g = nx.star_graph(10)
        assert unevenness(g, 1) > 0
        assert unevenness(g, 0) == 0

    def test_validate_acd_accepts_planted_truth(self):
        planted = planted_almost_cliques(num_cliques=2, clique_size=10, num_sparse=0,
                                         cross_edges=0, dropout=0.05, seed=11)
        report = validate_acd(
            planted.graph,
            sparse_nodes=[],
            uneven_nodes=[],
            almost_cliques=planted.cliques,
            eps_sparse=0.2,
            eps_clique=0.3,
        )
        assert acd_report_is_clean(report)

    def test_validate_acd_flags_uncovered_nodes(self):
        g = nx.path_graph(4)
        report = validate_acd(g, sparse_nodes=[0, 1], uneven_nodes=[], almost_cliques=[],
                              eps_sparse=0.1, eps_clique=0.1)
        assert set(report["uncovered"]) == {2, 3}
        assert not acd_report_is_clean(report)

    def test_validate_acd_flags_overlap(self):
        g = nx.complete_graph(4)
        report = validate_acd(g, sparse_nodes=[0], uneven_nodes=[], almost_cliques=[{0, 1, 2, 3}],
                              eps_sparse=0.1, eps_clique=0.5)
        assert 0 in report["overlapping"]

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=5, max_value=40), p=st.floats(min_value=0.1, max_value=0.6),
           seed=st.integers(0, 100))
    def test_sparsity_bounds_property(self, n, p, seed):
        """0 <= local sparsity <= (d_v - 1)/2 always holds."""
        g = gnp_graph(n, p, seed=seed)
        for v in list(g.nodes())[:10]:
            d = g.degree(v)
            if d == 0:
                continue
            sparsity = exact_local_sparsity(g, v)
            assert -1e-9 <= sparsity <= (d - 1) / 2 + 1e-9


class TestGnpFast:
    """The sparse-time G(n, p) family (Batagelj–Brandes skipping)."""

    def test_deterministic_per_seed(self):
        a = gnp_fast_graph(300, p=0.02, seed=7)
        b = gnp_fast_graph(300, p=0.02, seed=7)
        assert set(a.edges()) == set(b.edges())
        c = gnp_fast_graph(300, p=0.02, seed=8)
        assert set(a.edges()) != set(c.edges())

    def test_avg_degree_targets_density(self):
        g = gnp_fast_graph(2000, avg_degree=8.0, seed=3)
        assert g.number_of_nodes() == 2000
        avg = 2.0 * g.number_of_edges() / g.number_of_nodes()
        assert 6.0 <= avg <= 10.0  # concentration around 8

    def test_isolated_nodes_kept(self):
        g = gnp_fast_graph(50, p=0.0, seed=0)
        assert g.number_of_nodes() == 50 and g.number_of_edges() == 0

    def test_rejects_ambiguous_density(self):
        with pytest.raises(ValueError):
            gnp_fast_graph(10)
        with pytest.raises(ValueError):
            gnp_fast_graph(10, p=0.1, avg_degree=5.0)
        with pytest.raises(ValueError):
            gnp_fast_graph(10, p=1.5)
        with pytest.raises(ValueError):
            gnp_fast_graph(10, avg_degree=-1.0)

    def test_distinct_family_from_gnp(self):
        # Committed gnp baselines rely on gnp's edge stream never changing;
        # the fast family is intentionally separate rather than a drop-in.
        a = gnp_graph(100, 0.1, seed=5)
        b = gnp_fast_graph(100, p=0.1, seed=5)
        assert set(a.edges()) != set(b.edges())
