"""``EstimateSparsity`` (Algorithm 3, Lemmas 4 and 5).

Sparsity measures how many edges are missing from a node's neighbourhood.
The paper uses two flavours:

* **global sparsity** ``ζ^[Δ]_v = (Δ-1)/2 − (1/2Δ)·Σ_{u∈N(v)} |N(u) ∩ N(v)|``
  (used by (Δ+1)-coloring algorithms), and
* **local sparsity** ``ζ^[d]_v = (d_v-1)/2 − (1/2d_v)·Σ_{u∈N(v)} |N(u) ∩ N(v)|``
  (used by (deg+1)-list-coloring).

Both reduce to estimating ``|N(u) ∩ N(v)|`` on every edge, which
``EstimateSimilarity`` does in ``O(1)`` rounds.  Lemma 4: the global estimate
is within ``εΔ`` of the truth w.p. ``1 − (νΔ)^{εΔ/2}``.  Lemma 5: the local
estimate is within ``εd_v`` w.p. ``1 − (νd_v)^{εd_v/3}`` for nodes with fewer
than ``εd_v/3`` neighbours of degree ``≥ 2d_v`` (higher-degree neighbours make
the per-edge estimates unreliable, so they are excluded from the sum and their
worst-case contribution is accounted separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.congest.network import Network
from repro.congest.topology import Topology
from repro.congest.transport import Deliveries
from repro.sampling.similarity import (
    SimilarityParameters,
    SimilarityResult,
    check_eps,
    estimate_similarity_on_edges,
)

Node = Hashable


@dataclass
class SparsityEstimates:
    """Per-node sparsity estimates plus the per-edge similarity data behind them."""

    estimates: Dict[Node, float]
    reliable: Dict[Node, bool]
    edge_similarities: Dict[Tuple[Node, Node], SimilarityResult] = field(repr=False, default_factory=dict)
    rounds_used: int = 0

    def __getitem__(self, node: Node) -> float:
        return self.estimates[node]


def _both_orientations(
    similarities: Dict[Tuple[Node, Node], SimilarityResult]
) -> Dict[Tuple[Node, Node], SimilarityResult]:
    """The (symmetric) per-edge results, keyed by both orientations of each edge."""
    by_edge: Dict[Tuple[Node, Node], SimilarityResult] = {}
    for (u, v), result in similarities.items():
        by_edge[(u, v)] = result
        by_edge[(v, u)] = result
    return by_edge


def _misheard_degrees(
    topology: Topology, announced: Deliveries, degrees: Dict[Node, int]
) -> Dict[Node, Dict[Node, Any]]:
    """Neighbour degrees as heard by each receiver of a differing announcement.

    A receiver uses the announced degree where one arrived and the true
    degree where a fault removed it, so only announcements that differ from
    their sender's true degree change what it hears; only a corrupting
    fault plan makes any.  One array comparison over the round's values
    finds them.  Every other receiver hears ``degrees``.
    """
    nodes = topology.nodes
    values = announced.values
    true_degrees = np.diff(topology.indptr)
    sender_of_slot = np.zeros(len(values), dtype=np.int64)
    sender_of_slot[announced.slots] = announced.senders
    differs = (np.fromiter(values, dtype=object, count=len(values))
               != true_degrees[sender_of_slot])
    heard: Dict[Node, Dict[Node, Any]] = {}
    for k in np.flatnonzero(differs[announced.slots]).tolist():
        receiver = nodes[announced.receivers[k]]
        if receiver not in heard:
            heard[receiver] = {u: degrees[u] for u in topology.neighbors(receiver)}
        heard[receiver][nodes[announced.senders[k]]] = values[announced.slots[k]]
    return heard


def estimate_global_sparsity(
    network: Network,
    eps: float = 0.3,
    params: Optional[SimilarityParameters] = None,
    nodes: Optional[Iterable[Node]] = None,
    seed: int = 0,
) -> SparsityEstimates:
    """Estimate ``ζ^[Δ]_v`` for every node (Algorithm 3).

    Every edge runs ``EstimateSimilarity(ε/2)`` on the endpoints'
    neighbourhoods simultaneously, then each node aggregates locally — the
    whole procedure is a constant number of CONGEST rounds.
    """
    check_eps(eps)
    if params is None:
        params = SimilarityParameters.practical(eps=eps / 2.0, seed=seed)
    nodes = list(nodes) if nodes is not None else network.nodes
    rounds_before = network.rounds_used
    by_edge = _both_orientations(estimate_similarity_on_edges(
        network, params=params, seed=seed, label="estimate-sparsity",
    ))

    delta = max(1, network.max_degree())
    estimates: Dict[Node, float] = {}
    for v in nodes:
        total = sum(by_edge[(v, u)].estimate for u in network.neighbors(v))
        estimates[v] = (delta - 1) / 2.0 - total / (2.0 * delta)
    return SparsityEstimates(
        estimates=estimates,
        reliable={v: True for v in nodes},
        edge_similarities=by_edge,
        rounds_used=network.rounds_used - rounds_before,
    )


def estimate_local_sparsity(
    network: Network,
    eps: float = 0.3,
    params: Optional[SimilarityParameters] = None,
    nodes: Optional[Iterable[Node]] = None,
    seed: int = 0,
) -> SparsityEstimates:
    """Estimate the local sparsity ``ζ^[d]_v`` (Lemma 5 tweak of Algorithm 3).

    Nodes first learn their neighbours' degrees (one round), then run the
    similarity protocol with accuracy ``ε/3`` restricted to neighbours of
    degree below ``2·d_v``.  The result for node ``v`` is flagged as
    ``reliable`` only when fewer than ``ε·d_v/3`` of its neighbours have
    degree at least ``2·d_v`` — Lemma 5's precondition.
    """
    check_eps(eps)
    if params is None:
        params = SimilarityParameters.practical(eps=eps / 3.0, seed=seed)
    nodes = list(nodes) if nodes is not None else network.nodes
    rounds_before = network.rounds_used

    # Round 0: everyone announces its degree.
    degrees = {v: network.degree(v) for v in network.nodes}
    heard = _misheard_degrees(
        network.topology,
        network.broadcast(degrees, label="estimate-sparsity:degrees"),
        degrees,
    )

    by_edge = _both_orientations(estimate_similarity_on_edges(
        network, params=params, seed=seed, label="estimate-local-sparsity",
    ))

    estimates: Dict[Node, float] = {}
    reliable: Dict[Node, bool] = {}
    for v in nodes:
        dv = max(1, degrees[v])
        heard_by_v = heard.get(v, degrees)
        usable = [u for u in network.neighbors(v) if heard_by_v[u] < 2 * dv]
        excluded = network.degree(v) - len(usable)
        total = sum(by_edge[(v, u)].estimate for u in usable)
        estimates[v] = (dv - 1) / 2.0 - total / (2.0 * dv)
        reliable[v] = excluded < eps * dv / 3.0
    return SparsityEstimates(
        estimates=estimates,
        reliable=reliable,
        edge_similarities=by_edge,
        rounds_used=network.rounds_used - rounds_before,
    )
