"""Exact (centralised) graph properties used as ground truth.

The distributed primitives estimate these quantities with small messages; the
tests and benchmarks compare the estimates against the exact values computed
here (which a simulator is allowed to compute centrally — a real network is
not, which is the whole point of the paper).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

Node = Hashable


def neighborhood_edge_count(graph: nx.Graph, node: Node) -> int:
    """``m(N(v))``: number of edges between neighbours of ``node``."""
    neighbors = set(graph.neighbors(node))
    count = 0
    for u in neighbors:
        for w in graph.neighbors(u):
            if w in neighbors and repr(w) > repr(u):
                count += 1
    return count


def exact_global_sparsity(graph: nx.Graph, node: Node, delta: Optional[int] = None) -> float:
    """Exact ``ζ^[Δ]_v`` (Definition 1)."""
    if delta is None:
        delta = max((d for _, d in graph.degree()), default=1)
    delta = max(1, delta)
    missing = delta * (delta - 1) / 2.0 - neighborhood_edge_count(graph, node)
    return missing / delta


def exact_local_sparsity(graph: nx.Graph, node: Node) -> float:
    """Exact ``ζ^[d]_v`` (Definition 1 / Definition 4)."""
    degree = max(1, graph.degree(node))
    missing = degree * (degree - 1) / 2.0 - neighborhood_edge_count(graph, node)
    return missing / degree


def unevenness(graph: nx.Graph, node: Node) -> float:
    """``η_v = Σ_{u∈N(v)} max(0, d_u − d_v) / (d_u + 1)`` (Definition 5)."""
    dv = graph.degree(node)
    total = 0.0
    for u in graph.neighbors(node):
        du = graph.degree(u)
        total += max(0, du - dv) / (du + 1)
    return total


def validate_acd(
    graph: nx.Graph,
    sparse_nodes: Iterable[Node],
    uneven_nodes: Iterable[Node],
    almost_cliques: Iterable[Set[Node]],
    eps_sparse: float,
    eps_clique: float,
) -> Dict[str, object]:
    """Check the four properties of a (deg+1) almost-clique decomposition (Def. 6).

    Returns a report dictionary with, for each property, the list of violating
    nodes (empty lists mean the decomposition is valid).  The checks use a
    small multiplicative tolerance nowhere — they are exactly the inequalities
    of Definition 6 — so callers deciding what counts as "close enough" for a
    randomized decomposition do so explicitly in their own assertions.
    """
    sparse_nodes = set(sparse_nodes)
    uneven_nodes = set(uneven_nodes)
    almost_cliques = [set(c) for c in almost_cliques]
    dense_nodes = set().union(*almost_cliques) if almost_cliques else set()

    all_nodes = set(graph.nodes())
    covered = sparse_nodes | uneven_nodes | dense_nodes
    uncovered = all_nodes - covered
    overlapping: List[Node] = []
    seen: Set[Node] = set()
    for part in (sparse_nodes, uneven_nodes):
        overlapping.extend(part & dense_nodes)
    for clique in almost_cliques:
        overlapping.extend(clique & seen)
        seen |= clique

    sparse_violations = [
        v for v in sparse_nodes
        if exact_local_sparsity(graph, v) < eps_sparse * graph.degree(v)
    ]
    uneven_violations = [
        v for v in uneven_nodes
        if unevenness(graph, v) < eps_sparse * graph.degree(v)
    ]
    degree_violations: List[Node] = []
    membership_violations: List[Node] = []
    for clique in almost_cliques:
        size = len(clique)
        for v in clique:
            if graph.degree(v) > (1 + eps_clique) * size:
                degree_violations.append(v)
            in_clique_neighbors = sum(1 for u in graph.neighbors(v) if u in clique)
            if (1 + eps_clique) * max(in_clique_neighbors, 1) < size:
                membership_violations.append(v)

    return {
        "uncovered": sorted(uncovered, key=repr),
        "overlapping": sorted(set(overlapping), key=repr),
        "sparse_violations": sorted(sparse_violations, key=repr),
        "uneven_violations": sorted(uneven_violations, key=repr),
        "degree_violations": sorted(degree_violations, key=repr),
        "membership_violations": sorted(membership_violations, key=repr),
    }

