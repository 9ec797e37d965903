"""Local 4-cycle-richness detection (Theorem 3).

Theorem 3: there is an ``O(ε^{-4})``-round CONGEST algorithm that, for each
pair of edges incident on the same vertex, detects w.h.p. whether the pair is
contained in at least ``εΔ`` 4-cycles.

The protocol (Section 3.5): each vertex ``v`` picks a random representative
hash function ``h`` and announces it to its neighbours; each neighbour ``u``
replies with the ``σ``-bit indicator of ``N(u) ¬_h N(u)`` (its neighbours with
a unique low hash value).  With those in hand, ``v`` locally estimates
``|N(u) ∩ N(u')|`` for every pair of its neighbours ``u, u'`` exactly as
``EstimateSimilarity`` would — the number of 4-cycles through the edge pair
``(vu, vu')`` is ``|N(u) ∩ N(u')| − 1`` (discounting ``v`` itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple

from repro.congest.bandwidth import bitstring_message, index_message
from repro.congest.network import Network
from repro.hashing.representative import RepresentativeHashFamily
from repro.hashing.setops import unique_part
from repro.sampling.similarity import check_eps
from repro.utils.rng import RngStream

Node = Hashable
EdgePair = Tuple[Node, Node, Node]  # (center, neighbor_1, neighbor_2)


@dataclass
class FourCycleDetectionResult:
    """Estimates for every wedge (pair of edges sharing a vertex)."""

    threshold: float
    estimates: Dict[EdgePair, float]
    flagged: Set[EdgePair]
    rounds_used: int


def detect_four_cycle_rich_pairs(
    network: Network,
    eps: float = 0.3,
    delta: Optional[int] = None,
    nodes: Optional[Iterable[Node]] = None,
    nu: float = 0.1,
    sigma_cap: Optional[int] = 1024,
    seed: int = 0,
) -> FourCycleDetectionResult:
    """Flag every wedge contained in at least ``ε·Δ`` 4-cycles (Theorem 3)."""
    check_eps(eps)
    if delta is None:
        delta = max(1, network.max_degree())
    nodes = list(nodes) if nodes is not None else network.nodes
    rounds_before = network.rounds_used
    stream = RngStream(seed)

    # Round 1: every centre vertex picks one representative hash function for
    # its whole neighbourhood and broadcasts its index.
    lam = max(2, int(math.ceil(8.0 * delta / eps)))
    family = RepresentativeHashFamily(
        universe_label="four-cycles",
        universe_size=max(2, network.number_of_nodes),
        lam=lam,
        alpha=eps ** 2 / 8.0,
        beta=eps / 4.0,
        nu=nu,
        seed=seed,
        sigma_cap=sigma_cap,
    )
    chosen_index: Dict[Node, int] = {
        v: family.sample_index(stream.for_node(v, "four-cycle-hash")) for v in nodes
    }
    network.broadcast(
        {v: index_message(chosen_index[v], family.size, label="four-cycles:index") for v in nodes},
        label="four-cycles:index",
    )

    # Round 2: each neighbour u of a centre v answers with the σ-bit indicator
    # of N(u) ¬_h N(u) under v's hash function.
    sigma = family.sigma
    reply_messages = {}
    replies: Dict[Tuple[Node, Node], FrozenSet[int]] = {}
    for v in nodes:
        h = family.member(chosen_index[v])
        for u in network.neighbors(v):
            neighborhood = network.neighbors(u)
            survivors = unique_part(h, neighborhood, neighborhood, sigma)
            values = frozenset(h(x) for x in survivors)
            replies[(u, v)] = values
            bits = [1 if value in values else 0 for value in range(1, sigma + 1)]
            reply_messages[(u, v)] = bitstring_message(bits, label="four-cycles:indicator")
    network.exchange_chunked(reply_messages, label="four-cycles:indicator")

    # Local post-processing at each centre: estimate |N(u) ∩ N(u')| for every
    # pair of neighbours from the received indicators.
    threshold = eps * delta
    estimates: Dict[EdgePair, float] = {}
    flagged: Set[EdgePair] = set()
    for v in nodes:
        neighbors = sorted(network.neighbors(v), key=repr)
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                shared = replies[(u, v)] & replies[(w, v)]
                estimate = len(shared) * family.lam / sigma
                key = (v,) + tuple(sorted((u, w), key=repr))
                estimates[key] = estimate
                if estimate >= threshold:
                    flagged.add(key)
    return FourCycleDetectionResult(
        threshold=threshold,
        estimates=estimates,
        flagged=flagged,
        rounds_used=network.rounds_used - rounds_before,
    )
