"""Graph generators for the coloring, sparsity and detection experiments.

All generators return plain ``networkx.Graph`` objects with integer node
labels and are fully determined by their ``seed`` argument.  The planted
generators additionally return the ground-truth structure (which nodes belong
to which planted almost-clique, which edges are triangle-rich, ...) so that
tests and benchmarks can score the distributed algorithms against the truth.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx


def gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi ``G(n, p)`` graph (isolated nodes kept)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return nx.gnp_random_graph(n, p, seed=seed)


def gnp_fast_graph(n: int, p: Optional[float] = None,
                   avg_degree: Optional[float] = None, seed: int = 0) -> nx.Graph:
    """Sparse-time Erdős–Rényi ``G(n, p)`` (geometric edge skipping).

    Samples exactly the ``G(n, p)`` distribution in ``O(n + m)`` expected
    time (Batagelj–Brandes, via ``nx.fast_gnp_random_graph``) instead of
    :func:`gnp_graph`'s ``O(n²)`` pair enumeration — the difference between
    minutes and milliseconds at ``n = 500 000``.  The *edge stream differs*
    from :func:`gnp_graph` for the same seed (a different algorithm consumes
    the RNG differently), so this is a separate family: committed baselines
    built on ``gnp`` stay byte-identical, and large-n suites opt into
    ``gnp_fast`` explicitly.  ``avg_degree`` is accepted in place of ``p``
    (``p = avg_degree / n``) for the degree-targeted large-n scenarios.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if (p is None) == (avg_degree is None):
        raise ValueError("give exactly one of p / avg_degree")
    if p is None:
        if avg_degree < 0:
            raise ValueError("avg_degree must be non-negative")
        p = min(1.0, float(avg_degree) / max(1, n))
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return nx.fast_gnp_random_graph(n, p, seed=seed)


def power_law_graph(n: int, attachment: int = 3, triangle_prob: float = 0.3,
                    seed: int = 0) -> nx.Graph:
    """Power-law graph with tunable clustering (Holme–Kim model).

    This is the "social network" style workload the paper's introduction
    motivates: highly skewed degrees and dense local neighbourhoods, which is
    where (deg+1)-list-coloring differs most from (Δ+1)-coloring.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    attachment = max(1, min(attachment, n - 1))
    return nx.powerlaw_cluster_graph(n, attachment, triangle_prob, seed=seed)


def random_regular_graph(n: int, degree: int, seed: int = 0) -> nx.Graph:
    """A random ``degree``-regular graph (``n * degree`` must be even).

    A ``degree``-regular graph on ``n`` nodes only exists when ``n * degree``
    is even; an odd product is rejected rather than silently returning a graph
    on a different node count than requested.
    """
    if degree >= n:
        raise ValueError("degree must be below n")
    if (n * degree) % 2 == 1:
        raise ValueError(
            f"no {degree}-regular graph on {n} nodes exists: n * degree must be "
            "even (use n + 1 or degree + 1 explicitly)"
        )
    return nx.random_regular_graph(degree, n, seed=seed)


def random_geometric_graph(n: int, radius: float = 0.15, seed: int = 0) -> nx.Graph:
    """Random geometric graph: ``n`` points in the unit square, edges below ``radius``.

    Geometric graphs are the "radio network" workload: degrees are governed by
    local point density, neighbourhoods are dense (two neighbours of a node
    are themselves likely close), and there is no global symmetry — a natural
    stress test for the almost-clique decomposition and for frequency
    assignment style coloring scenarios.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < radius <= math.sqrt(2):
        raise ValueError("radius must lie in (0, sqrt(2)]")
    return nx.random_geometric_graph(n, radius, seed=seed)


@dataclass
class PlantedAlmostCliques:
    """A graph with planted almost-cliques plus sparse background nodes."""

    graph: nx.Graph
    cliques: List[Set[int]]
    sparse_nodes: Set[int] = field(default_factory=set)


def planted_almost_cliques(
    num_cliques: int = 4,
    clique_size: int = 20,
    dropout: float = 0.1,
    num_sparse: int = 20,
    sparse_degree: int = 6,
    cross_edges: int = 10,
    seed: int = 0,
) -> PlantedAlmostCliques:
    """Plant ``num_cliques`` almost-cliques, plus sparse background nodes.

    Each planted clique is a complete graph on ``clique_size`` nodes with a
    ``dropout`` fraction of its edges removed (so its members are dense but
    not perfectly so), a few random edges crossing between cliques, and
    ``num_sparse`` background nodes with low-degree random attachments.  The
    returned structure records the planted membership, which the ACD
    experiments compare against.
    """
    if num_cliques < 1 or clique_size < 3:
        raise ValueError("need at least one clique of size >= 3")
    if not 0 <= dropout < 0.5:
        raise ValueError("dropout must be in [0, 0.5)")
    if num_sparse < 0:
        raise ValueError(f"num_sparse must be >= 0, got {num_sparse}")
    rng = random.Random(seed)
    graph = nx.Graph()
    cliques: List[Set[int]] = []
    next_node = 0
    for _ in range(num_cliques):
        members = set(range(next_node, next_node + clique_size))
        next_node += clique_size
        graph.add_nodes_from(members)
        for u, v in itertools.combinations(sorted(members), 2):
            if rng.random() >= dropout:
                graph.add_edge(u, v)
        cliques.append(members)

    # A few cross edges between cliques (they should not merge the cliques).
    all_clique_nodes = [v for members in cliques for v in sorted(members)]
    for _ in range(cross_edges):
        u, v = rng.sample(all_clique_nodes, 2)
        graph.add_edge(u, v)

    sparse_nodes: Set[int] = set()
    for _ in range(num_sparse):
        v = next_node
        next_node += 1
        sparse_nodes.add(v)
        graph.add_node(v)
        candidates = all_clique_nodes + sorted(sparse_nodes - {v})
        degree = min(sparse_degree, len(candidates))
        for u in rng.sample(candidates, degree):
            graph.add_edge(u, v)
    return PlantedAlmostCliques(graph=graph, cliques=cliques, sparse_nodes=sparse_nodes)


def ring_of_cliques(num_cliques: int, clique_size: int) -> nx.Graph:
    """``num_cliques`` cliques arranged in a ring, one bridge edge between consecutive ones."""
    if num_cliques < 2 or clique_size < 2:
        raise ValueError("need at least two cliques of size >= 2")
    return nx.ring_of_cliques(num_cliques, clique_size)


@dataclass
class TriangleRichGraph:
    """A sparse background graph with planted triangle-rich edges."""

    graph: nx.Graph
    rich_edges: Set[Tuple[int, int]]


def triangle_rich_graph(
    n: int = 120,
    background_p: float = 0.02,
    planted_cliques: int = 3,
    clique_size: int = 14,
    seed: int = 0,
) -> TriangleRichGraph:
    """Sparse ``G(n, p)`` background plus planted cliques whose edges are triangle-rich."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, background_p, seed=seed)
    rich_edges: Set[Tuple[int, int]] = set()
    nodes = list(graph.nodes())
    for _ in range(planted_cliques):
        members = rng.sample(nodes, min(clique_size, len(nodes)))
        for u, v in itertools.combinations(members, 2):
            graph.add_edge(u, v)
            rich_edges.add((min(u, v), max(u, v)))
    return TriangleRichGraph(graph=graph, rich_edges=rich_edges)


@dataclass
class FourCycleRichGraph:
    """A sparse background graph with planted complete-bipartite (C4-rich) blocks."""

    graph: nx.Graph
    rich_centers: Set[int]


def four_cycle_rich_graph(
    n: int = 120,
    background_p: float = 0.02,
    planted_blocks: int = 2,
    side_size: int = 10,
    seed: int = 0,
) -> FourCycleRichGraph:
    """Sparse background plus planted ``K_{s,s}`` blocks, whose wedges are 4-cycle-rich."""
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, background_p, seed=seed)
    nodes = list(graph.nodes())
    rich_centers: Set[int] = set()
    for _ in range(planted_blocks):
        members = rng.sample(nodes, min(2 * side_size, len(nodes)))
        left, right = members[:side_size], members[side_size:]
        for u in left:
            for v in right:
                graph.add_edge(u, v)
        rich_centers.update(left)
        rich_centers.update(right)
    return FourCycleRichGraph(graph=graph, rich_centers=rich_centers)


def locally_sparse_graph(n: int = 100, degree: int = 8, seed: int = 0) -> nx.Graph:
    """A graph with (near) triangle-free neighbourhoods: a random bipartite graph.

    Every node's neighbourhood is (almost) an independent set, so its local
    sparsity is close to the maximum ``(d_v - 1)/2`` — the regime where slack
    generation gives every node linear slack.
    """
    half = max(2, n // 2)
    p = min(1.0, degree / half)
    return nx.bipartite.random_graph(half, n - half, p, seed=seed)
