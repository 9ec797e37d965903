"""Graph, palette and instance generators used by tests, examples and benchmarks."""

from repro.graphs.generators import (
    gnp_fast_graph,
    gnp_graph,
    power_law_graph,
    random_geometric_graph,
    random_regular_graph,
    planted_almost_cliques,
    ring_of_cliques,
    triangle_rich_graph,
    four_cycle_rich_graph,
    locally_sparse_graph,
)
from repro.graphs.lists import (
    degree_plus_one_lists,
    numeric_degree_lists,
    huge_color_space_lists,
    shared_pool_lists,
)
from repro.graphs.properties import (
    exact_global_sparsity,
    exact_local_sparsity,
    validate_acd,
    neighborhood_edge_count,
)

__all__ = [
    "gnp_fast_graph",
    "gnp_graph",
    "power_law_graph",
    "random_geometric_graph",
    "random_regular_graph",
    "planted_almost_cliques",
    "ring_of_cliques",
    "triangle_rich_graph",
    "four_cycle_rich_graph",
    "locally_sparse_graph",
    "degree_plus_one_lists",
    "numeric_degree_lists",
    "huge_color_space_lists",
    "shared_pool_lists",
    "exact_global_sparsity",
    "exact_local_sparsity",
    "validate_acd",
    "neighborhood_edge_count",
]
