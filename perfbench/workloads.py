"""The benchmark's three workloads: instance generation, solve, independent check.

Every workload drives the public API with the one fast path the repository
keeps (``backend="columnar"``, ``ledger="counters"``) in this process
(``shards=1``, no worker pool).  Instances are made from a seed only, so the
same seed always gives the same inputs.

* ``d1c-gnp-sparse`` — (deg+1)-coloring of a sparse G(n, p).  At average
  degree 8 the ACD marks almost every node sparse, so the sparse phase,
  per-node randomness and the deterministic fallback carry the work and the
  dense phase idles.
* ``d1lc-ring-dense`` — list coloring of a ring of 8-cliques with random
  (deg+1)-lists.  Every node is dense, so leaders, put-aside sets and the
  synchronized trial run on real lists while the sparse phase and the
  fallback idle.
* ``detect-triangle-rich`` — Theorem 2's triangle detection, then Lemma 5's
  local sparsity, on a sparse graph with planted cliques.  No coloring: the
  scalar ``EstimateSimilarity`` sweep, which exchanges real payloads, does
  most of the work, so this workload should not move when only the coloring
  core or the columnar sweep changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional

import networkx as nx

from repro import Network, solve_d1c, solve_d1lc
from repro.graphs import (
    degree_plus_one_lists,
    gnp_fast_graph,
    ring_of_cliques,
    triangle_rich_graph,
)
from repro.sampling.similarity import SimilarityParameters
from repro.sampling.sparsity import estimate_local_sparsity
from repro.sampling.triangles import detect_triangle_rich_edges, true_triangle_count

BACKEND = "columnar"
LEDGER = "counters"
DETECT_EPS = 0.3

Node = Hashable


@dataclass
class Instance:
    """One generated input: the graph, and the lists for D1LC."""

    seed: int
    graph: nx.Graph
    lists: Optional[Dict[Node, set]] = None
    #: The benchmark's own copy of the lists, out of any solver's reach.
    reference_lists: Optional[Dict[Node, FrozenSet]] = None

    def freeze(self) -> None:
        """Take the reference copy of the lists (done outside set-up timing)."""
        if self.lists is not None:
            self.reference_lists = {v: frozenset(c) for v, c in self.lists.items()}


@dataclass
class Outcome:
    """What one solve produced, as the benchmark checked it."""

    fingerprint: str
    rounds: int
    total_bits: int
    fallback_nodes: int
    problems: List[str]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Whether the workload colors (and so has fallback nodes to report).
    coloring: bool
    sizes: Dict[str, dict]
    #: Distinct instances generated per run; each run solves all of them.
    instances: int
    generate: Callable[[int, dict, object], Instance]
    solve: Callable[[Instance, object], object]
    check: Callable[[Instance, object], Outcome]


def _digest(*parts: object) -> str:
    return hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Coloring workloads
# --------------------------------------------------------------------------- #

def _generate_gnp(seed: int, size: dict, rec) -> Instance:
    with rec.span("graphs", phase=True):
        graph = gnp_fast_graph(size["n"], avg_degree=size["avg_degree"], seed=seed)
    return Instance(seed=seed, graph=graph)


def _generate_ring(seed: int, size: dict, rec) -> Instance:
    with rec.span("graphs", phase=True):
        graph = ring_of_cliques(size["cliques"], size["clique_size"])
        lists = degree_plus_one_lists(graph, seed=seed)
    return Instance(seed=seed, graph=graph, lists=lists)


def _solve_coloring(instance: Instance, rec):
    options = dict(seed=instance.seed, backend=BACKEND, ledger=LEDGER, shards=1)
    with rec.span("core.d1lc"):
        if instance.lists is None:
            return solve_d1c(instance.graph, **options)
        return solve_d1lc(instance.graph, instance.lists, **options)


def _check_coloring(instance: Instance, result) -> Outcome:
    """Check the coloring without trusting the solver's own report."""
    graph, lists, colors = instance.graph, instance.reference_lists, result.coloring
    problems = []
    for v in graph:
        color = colors.get(v)
        if color is None:
            problems.append(f"node {v!r} uncolored")
        elif lists is not None and color not in lists[v]:
            problems.append(f"node {v!r}: color {color!r} not in its list")
        elif lists is None and not 0 <= color <= graph.degree(v):
            problems.append(f"node {v!r}: color {color!r} above its degree")
    for u, v in graph.edges():
        if colors.get(u) is not None and colors.get(u) == colors.get(v):
            problems.append(f"edge ({u!r}, {v!r}) monochromatic")
    if result.max_edge_bits > result.bandwidth_bits:
        problems.append(
            f"max_edge_bits {result.max_edge_bits} > budget {result.bandwidth_bits}"
        )
    coloring = ";".join(f"{v!r}:{c!r}" for v, c in sorted(colors.items()))
    return Outcome(
        fingerprint=_digest(coloring, result.rounds, result.total_bits),
        rounds=result.rounds,
        total_bits=result.total_bits,
        fallback_nodes=result.fallback_nodes,
        problems=problems[:5],
    )


# --------------------------------------------------------------------------- #
# Detection workload
# --------------------------------------------------------------------------- #

def _generate_triangles(seed: int, size: dict, rec) -> Instance:
    with rec.span("graphs", phase=True):
        planted = triangle_rich_graph(
            n=size["n"], background_p=size["background_p"],
            planted_cliques=size["cliques"], clique_size=size["clique_size"], seed=seed,
        )
    return Instance(seed=seed, graph=planted.graph)


@dataclass
class _Detection:
    triangles_network: Network
    triangles: object
    sparsity_network: Network
    sparsity: object


def _solve_detection(instance: Instance, rec) -> _Detection:
    options = dict(backend=BACKEND, ledger=LEDGER, shards=1)
    triangles_network = Network(instance.graph, **options)
    with rec.span("sampling.triangles"):
        triangles = detect_triangle_rich_edges(
            triangles_network, eps=DETECT_EPS, seed=instance.seed
        )
    sparsity_network = Network(instance.graph, **options)
    with rec.span("sampling.sparsity"):
        sparsity = estimate_local_sparsity(
            sparsity_network, eps=DETECT_EPS, seed=instance.seed
        )
    return _Detection(triangles_network, triangles, sparsity_network, sparsity)


def _check_detection(instance: Instance, result: _Detection) -> Outcome:
    """Check the flags and estimates against exact triangle counts.

    * every edge in at least twice the threshold's exact triangles is flagged;
    * Lemma 2: at most a ``ν`` share of the edges have an estimate off by more
      than ``ε·max(d_u, d_v)``, with the ``ε`` and ``ν`` the detector uses;
    * at most a ``ν`` share of the clearly poor edges (exact count below the
      threshold by more than that margin) are flagged.
    """
    problems = []
    graph, network, detected = instance.graph, result.triangles_network, result.triangles
    accuracy = SimilarityParameters.practical(eps=DETECT_EPS / 2.0)
    off = poor = poor_flagged = 0
    for (u, v), estimate in detected.estimates.items():
        exact = true_triangle_count(network, u, v)
        margin = accuracy.eps * max(graph.degree(u), graph.degree(v))
        flagged = detected.is_flagged(u, v)
        off += abs(estimate - exact) > margin
        if exact < detected.threshold - margin:
            poor += 1
            poor_flagged += flagged
        if exact >= 2 * detected.threshold and not flagged:
            problems.append(f"edge ({u!r}, {v!r}) triangle-rich but not flagged")
    edges = graph.number_of_edges()
    if len(detected.estimates) != edges or off > accuracy.nu * edges:
        problems.append(f"{off} of {edges} estimates outside Lemma 2's accuracy")
    if poor_flagged > accuracy.nu * poor:
        problems.append(f"{poor_flagged} of {poor} clearly poor edges flagged")
    if len(result.sparsity.estimates) != instance.graph.number_of_nodes():
        problems.append("sparsity estimate missing for some nodes")
    for net in (result.triangles_network, result.sparsity_network):
        if net.ledger.max_edge_bits > net.bandwidth_bits:
            problems.append(
                f"max_edge_bits {net.ledger.max_edge_bits} > budget {net.bandwidth_bits}"
            )
    rounds = result.triangles_network.ledger.rounds + result.sparsity_network.ledger.rounds
    bits = result.triangles_network.ledger.total_bits + result.sparsity_network.ledger.total_bits
    flagged = sorted(tuple(sorted(edge)) for edge in detected.flagged)
    estimates = sorted(result.sparsity.estimates.items())
    return Outcome(
        fingerprint=_digest(flagged, estimates, rounds, bits),
        rounds=rounds,
        total_bits=bits,
        fallback_nodes=0,
        problems=problems[:5],
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="d1c-gnp-sparse",
            coloring=True,
            sizes={"full": {"n": 20_000, "avg_degree": 8},
                   "tiny": {"n": 200, "avg_degree": 8}},
            instances=7,
            generate=_generate_gnp,
            solve=_solve_coloring,
            check=_check_coloring,
        ),
        Workload(
            name="d1lc-ring-dense",
            coloring=True,
            sizes={"full": {"cliques": 2_500, "clique_size": 8},
                   "tiny": {"cliques": 25, "clique_size": 8}},
            instances=6,
            generate=_generate_ring,
            solve=_solve_coloring,
            check=_check_coloring,
        ),
        Workload(
            name="detect-triangle-rich",
            coloring=False,
            sizes={"full": {"n": 3_000, "background_p": 0.004, "cliques": 10, "clique_size": 20},
                   "tiny": {"n": 200, "background_p": 0.04, "cliques": 2, "clique_size": 12}},
            instances=4,
            generate=_generate_triangles,
            solve=_solve_detection,
            check=_check_detection,
        ),
    )
}

