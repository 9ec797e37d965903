"""Local triangle-richness detection (Theorem 2).

Theorem 2: there is an ``O(ε^{-4})``-round CONGEST algorithm that, for each
edge, detects w.h.p. whether the edge is contained in at least ``εΔ``
triangles.  The algorithm is a one-liner given ``EstimateSimilarity``: the
number of triangles containing the edge ``uv`` is exactly ``|N(u) ∩ N(v)|``,
so each edge estimates that intersection and compares against the threshold.

This is the "local" analogue of distributed property testing: instead of a
single node flagging that the whole graph is far from triangle-free, *every*
edge learns whether it personally sits in many triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.congest.network import Network
from repro.sampling.similarity import (
    SimilarityParameters,
    check_eps,
    estimate_similarity_on_edges,
)

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass
class TriangleDetectionResult:
    """Per-edge triangle-count estimates and the edges flagged as triangle-rich."""

    threshold: float
    estimates: Dict[Edge, float]
    flagged: Set[Edge]
    rounds_used: int

    def is_flagged(self, u: Node, v: Node) -> bool:
        return (u, v) in self.flagged or (v, u) in self.flagged


def true_triangle_count(network: Network, u: Node, v: Node) -> int:
    """Exact number of triangles containing edge ``uv`` (ground truth helper)."""
    return len(network.neighbors(u) & network.neighbors(v))


def detect_triangle_rich_edges(
    network: Network,
    eps: float = 0.3,
    delta: Optional[int] = None,
    seed: int = 0,
) -> TriangleDetectionResult:
    """Flag every edge contained in at least ``ε·Δ`` triangles (Theorem 2).

    Parameters
    ----------
    eps:
        Richness threshold as a fraction of ``Δ``; also drives the accuracy of
        the underlying similarity estimates.
    delta:
        The maximum degree ``Δ`` against which the threshold is measured.
        Defaults to the true maximum degree of the network (globally known, as
        is standard in the property-testing setting).
    """
    check_eps(eps)
    if delta is None:
        delta = max(1, network.max_degree())
    rounds_before = network.rounds_used
    similarities = estimate_similarity_on_edges(
        network, params=SimilarityParameters.practical(eps=eps / 2.0, seed=seed), seed=seed,
        label="triangle-detection",
    )
    threshold = eps * delta
    estimates = {edge: result.estimate for edge, result in similarities.items()}
    flagged = {edge for edge, estimate in estimates.items() if estimate >= threshold}
    return TriangleDetectionResult(
        threshold=threshold,
        estimates=estimates,
        flagged=flagged,
        rounds_used=network.rounds_used - rounds_before,
    )
