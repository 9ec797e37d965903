"""Naive almost-clique decomposition: ship whole neighbourhoods.

The obvious way to decide whether an edge is an ``ε``-friend edge is for the
endpoints to exchange their full neighbour lists (``d·log n`` bits, i.e.
``Θ(Δ)`` CONGEST rounds via chunking) and intersect them exactly.  This is the
``Ω(Δ)``-round cost the paper's O(1)-round, sampling-based ACD (Section 4.2)
eliminates; the bandwidth ablation (Experiment E12) compares the two.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.congest.message import Message
from repro.congest.network import Network
from repro.core.acd import ACDResult
from repro.core.params import SPARSITY_EPS, ColoringParameters

Node = Hashable
Edge = Tuple[Node, Node]


def naive_compute_acd(
    network: Network,
    params: Optional[ColoringParameters] = None,
    active: Optional[Iterable[Node]] = None,
) -> ACDResult:
    """Exact-friendship ACD computed by exchanging full neighbour lists."""
    params = params or ColoringParameters.small()
    rounds_before = network.rounds_used
    active_set = set(active) if active is not None else set(network.nodes)
    eps = params.acd_eps

    neighborhoods: Dict[Node, Set[Node]] = {
        v: {u for u in network.neighbors(v) if u in active_set} for v in active_set
    }
    degrees = {v: len(neighborhoods[v]) for v in active_set}

    # One (chunked) exchange shipping the full neighbour list across every
    # active edge: d_v * log n bits per message, i.e. Θ(Δ) rounds.
    id_bits = max(1, (max(2, network.number_of_nodes) - 1).bit_length())
    messages = {}
    for v in active_set:
        payload = Message(
            content=tuple(sorted(neighborhoods[v], key=repr)),
            bits=max(1, id_bits * len(neighborhoods[v])),
            label="naive-acd:neighborhood",
        )
        for u in neighborhoods[v]:
            messages[(v, u)] = payload
    network.exchange_chunked(messages, label="naive-acd:neighborhood")

    friend_edges: Set[Edge] = set()
    for u, v in network.graph.edges():
        if u not in active_set or v not in active_set:
            continue
        du, dv = degrees[u], degrees[v]
        if min(du, dv) == 0 or min(du, dv) < (1 - eps) * max(du, dv):
            continue
        shared = len(neighborhoods[u] & neighborhoods[v])
        if shared >= (1 - eps) * min(du, dv):
            friend_edges.add((u, v))

    friends_of: Dict[Node, Set[Node]] = {v: set() for v in active_set}
    for (u, v) in friend_edges:
        friends_of[u].add(v)
        friends_of[v].add(u)
    dense = {
        v for v in active_set
        if degrees[v] > 0 and len(friends_of[v]) >= (1 - 2 * eps) * degrees[v]
    }

    cliques: Dict[int, Set[Node]] = {}
    clique_of: Dict[Node, int] = {}
    visited: Set[Node] = set()
    next_id = 0
    for v in sorted(dense, key=repr):
        if v in visited:
            continue
        component = {v}
        frontier = [v]
        while frontier:
            current = frontier.pop()
            for u in friends_of[current]:
                if u in dense and u not in component:
                    component.add(u)
                    frontier.append(u)
        visited |= component
        if len(component) > 2:
            cliques[next_id] = component
            for u in component:
                clique_of[u] = next_id
            next_id += 1

    uneven: Set[Node] = set()
    sparse: Set[Node] = set()
    for v in active_set:
        if v in clique_of:
            continue
        dv = degrees[v]
        unevenness = sum(
            max(0, degrees[u] - dv) / (degrees[u] + 1) for u in neighborhoods[v]
        )
        if dv > 0 and unevenness >= SPARSITY_EPS * dv:
            uneven.add(v)
        else:
            sparse.add(v)

    return ACDResult(
        sparse_nodes=sparse,
        uneven_nodes=uneven,
        cliques=cliques,
        clique_of=clique_of,
        friend_pairs=network.topology.index_array(
            [v for edge in friend_edges for v in edge]).reshape(-1, 2),
        rounds_used=network.rounds_used - rounds_before,
    )
