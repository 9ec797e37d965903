"""Almost-clique decomposition in CONGEST (Section 4.2, Definition 6, Algorithm 6).

An almost-clique decomposition (ACD) partitions the vertices into *sparse*
nodes, *uneven* nodes (many much-higher-degree neighbours), and *dense* nodes
grouped into almost-cliques — highly connected, low-diameter clusters whose
members have similar degrees.  The decomposition drives the dense-node phase
of the D1LC algorithm.

The CONGEST implementation follows the paper:

1. nodes announce whether they participate and their (induced) degree;
2. every edge whose endpoints have ``ε``-balanced degrees runs a *buddy test*
   that distinguishes ``ε``-friend edges (endpoints sharing most of their
   neighbourhoods, Definition 2) from edges far from being friends — either
   via ``EstimateSimilarity`` (Section 4.2) or via the uniform Algorithm 6
   (pairwise hashing + representative multisets + an error-correcting code);
3. nodes with mostly-friend neighbourhoods are *dense*; almost-cliques are the
   connected components of dense nodes under friend edges (diameter ≤ 2, so
   identifying components takes O(1) rounds of min-ID propagation);
4. non-dense nodes are *uneven* if their unevenness (Definition 5) is large,
   otherwise *sparse*.

The whole procedure costs ``O(1)`` rounds for constant ``ε`` — the statement
benchmarked by Experiment E8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.congest.bandwidth import bitstring_message, index_message, integer_message
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.topology import Topology
from repro.core.params import SPARSITY_EPS, ColoringParameters
from repro.hashing.ecc import ErrorCorrectingCode, hamming_distance
from repro.hashing.multiset import RepresentativeMultisetFamily
from repro.hashing.pairwise import PairwiseHashFamily
from repro.sampling.similarity import SimilarityParameters, estimate_similarity_on_edges
from repro.utils.rng import RngStream

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass
class ACDResult:
    """A (deg+1) almost-clique decomposition (Definition 6)."""

    sparse_nodes: Set[Node]
    uneven_nodes: Set[Node]
    cliques: Dict[int, Set[Node]]
    clique_of: Dict[Node, int]
    friend_edges: Set[Edge] = field(default_factory=set, repr=False)
    rounds_used: int = 0

    @property
    def dense_nodes(self) -> Set[Node]:
        return set(self.clique_of)

    def partition_summary(self) -> Dict[str, int]:
        return {
            "sparse": len(self.sparse_nodes),
            "uneven": len(self.uneven_nodes),
            "dense": len(self.dense_nodes),
            "cliques": len(self.cliques),
        }


# --------------------------------------------------------------------------- #
# Buddy tests
# --------------------------------------------------------------------------- #

def _similarity_buddy_edges(
    network: Network,
    neighborhoods: Dict[Node, Set[Node]],
    degrees: Dict[Node, int],
    candidate_edges: List[Edge],
    params: ColoringParameters,
    seed: int,
) -> Set[Edge]:
    """Buddy test via ``EstimateSimilarity`` (the Section 4.2 construction)."""
    eps = params.acd_eps
    # The buddy threshold needs the per-edge estimate to be accurate to a small
    # fraction of min(d_u, d_v); with the simulation-scale σ cap this requires a
    # larger observation window than the default similarity preset, so the cap
    # is raised here (still Θ(log n) up to the ε-dependent constant, i.e. the
    # ACD stays O(1) rounds for constant ε as in Section 4.2).
    sigma_cap = params.similarity_sigma_cap
    if sigma_cap is not None:
        sigma_cap = max(sigma_cap, 4096)
    sim_params = SimilarityParameters(
        eps=eps / 2.0,
        nu=0.1,
        max_scale=params.similarity_max_scale,
        sigma_cap=sigma_cap,
        seed=seed,
    )
    # The columnar kernel decides whether it runs: it declines (None, before
    # any ledger effect) off the columnar transport, under payload-digesting
    # tracers and outside its exactly-reproducible regime, and the reference
    # sweep below runs instead.  Looked up per call, so a wrapper installed
    # on the module attribute (as tracing and profiling do) takes effect.
    from repro.congest.columnar.sweep import columnar_buddy_edges

    buddies = columnar_buddy_edges(
        network, neighborhoods, degrees, candidate_edges,
        params=sim_params, seed=seed, label="acd:buddy",
        threshold_coeff=1.0 - 1.5 * eps,
    )
    if buddies is not None:
        return buddies
    results = estimate_similarity_on_edges(
        network, neighborhoods, edges=candidate_edges, params=sim_params,
        seed=seed, label="acd:buddy",
    )
    buddies: Set[Edge] = set()
    for (u, v), result in results.items():
        threshold = (1.0 - 1.5 * eps) * min(degrees[u], degrees[v])
        if result.estimate >= threshold:
            buddies.add((u, v))
    return buddies


def _uniform_buddy_edges(
    network: Network,
    neighborhoods: Dict[Node, Set[Node]],
    degrees: Dict[Node, int],
    candidate_edges: List[Edge],
    params: ColoringParameters,
    seed: int,
) -> Set[Edge]:
    """Buddy test via the uniform Algorithm 6 (no representative families).

    One endpoint picks an (almost) pairwise-independent hash function with few
    collisions among its own neighbours and announces it; both endpoints then
    sample the same representative multiset of hash values, mark which sampled
    values are hit by exactly one of their neighbours, and compare.  Sharing
    few marked values rules the edge out immediately.  Sharing many could also
    be caused by hash collisions, so the endpoints additionally compare random
    positions of the error-corrected encodings of the unique preimages — the
    ECC guarantees that genuinely different neighbours disagree on a constant
    fraction of positions.
    """
    eps = params.acd_eps
    stream = RngStream(seed)
    bandwidth = network.bandwidth_bits
    id_bits = max(8, (max(2, network.number_of_nodes) - 1).bit_length())
    code = ErrorCorrectingCode(word_bits=id_bits, expansion=3, seed=params.seed)

    # Round A: the lexicographically larger endpoint picks the hash function
    # (few collisions among its own neighbours) and sends (λ, index).
    setup_messages = {}
    edge_state: Dict[Edge, Tuple] = {}
    for (u, v) in candidate_edges:
        chooser, other = (v, u) if repr(v) >= repr(u) else (u, v)
        lam = max(2, int(math.ceil(6 * max(degrees[u], degrees[v]) / eps)))
        family = PairwiseHashFamily(
            universe_label="acd-uniform",
            universe_size=max(2, network.number_of_nodes),
            lam=lam,
            seed=params.seed,
        )
        rng = stream.for_edge(u, v, "uniform-buddy")
        max_collisions = max(1, int(eps * degrees[chooser] / 3.0))
        hash_index = family.find_low_collision_index(
            neighborhoods[chooser], max_collisions, rng
        )
        # σ = Θ(log n) observation points; a few bandwidth-widths (delivered
        # over chunked rounds) keep enough of the chooser's neighbourhood in
        # view for the marked-position comparison to have low variance.
        sigma = min(max(4 * bandwidth, 256), lam)
        multisets = RepresentativeMultisetFamily(domain_size=lam, count=sigma, seed=params.seed)
        multiset_index = multisets.sample_index(rng)
        sample = multisets.member(multiset_index).points()
        edge_state[(u, v)] = (family.member(hash_index), sample, chooser)
        setup_messages[(chooser, other)] = Message(
            content=(lam, hash_index, multiset_index),
            bits=max(1, lam.bit_length()) + family.index_bits + multisets.index_bits,
            label="acd:uniform-setup",
        )
    if setup_messages:
        network.exchange(setup_messages, label="acd:uniform-setup")
    else:
        network.charge_silent_round(label="acd:uniform-setup")

    # Round B: both endpoints send, for each sampled hash value, whether it is
    # hit by exactly one of their neighbours.
    def unique_marks(node: Node, h, sample: List[int]) -> Tuple[List[int], Dict[int, Node]]:
        buckets: Dict[int, List[Node]] = {}
        for w in neighborhoods[node]:
            buckets.setdefault(h(w), []).append(w)
        marks, owners = [], {}
        for position, value in enumerate(sample):
            bucket = buckets.get(value, [])
            if len(bucket) == 1:
                marks.append(1)
                owners[position] = bucket[0]
            else:
                marks.append(0)
        return marks, owners

    mark_messages = {}
    mark_data: Dict[Tuple[Node, Edge], Tuple[List[int], Dict[int, Node]]] = {}
    for (u, v), (h, sample, _chooser) in edge_state.items():
        for side, peer in ((u, v), (v, u)):
            marks, owners = unique_marks(side, h, sample)
            mark_data[(side, (u, v))] = (marks, owners)
            mark_messages[(side, peer)] = bitstring_message(marks, label="acd:uniform-marks")
    network.exchange_chunked(mark_messages, label="acd:uniform-marks")

    # Round C: positions marked by both endpoints are compared through the ECC.
    #
    # Algorithm 6 rejects the edge when too few sampled positions are marked
    # by both endpoints.  With λ = 6·max(d_u, d_v)/ε only a ~ε/6 fraction of
    # uniformly sampled hash values are hit by a neighbourhood at all, so the
    # workable form of that test normalises by the positions the *chooser*
    # marked: on an ε-friend edge almost all of them are also uniquely hit by
    # the other endpoint, while on a far-from-friend edge only a small
    # fraction are.  The exchanged messages are exactly those of Algorithm 6;
    # only the acceptance threshold is expressed relative to the chooser's
    # marks (a simulation-scale normalisation recorded in DESIGN.md).
    buddies: Set[Edge] = set()
    ecc_messages = {}
    ecc_state: Dict[Edge, Tuple[List[int], List[int], List[int]]] = {}
    for (u, v), (h, sample, chooser) in edge_state.items():
        marks_u, owners_u = mark_data[(u, (u, v))]
        marks_v, owners_v = mark_data[(v, (u, v))]
        chooser_marks = marks_u if chooser == u else marks_v
        marked_positions = [i for i in range(len(sample)) if chooser_marks[i]]
        common = [i for i in range(len(sample)) if marks_u[i] and marks_v[i]]
        if len(marked_positions) < 8:
            continue  # not enough observations to decide; treat as non-friend
        if len(common) <= (1.0 - 2.0 * eps) * len(marked_positions):
            continue  # too few shared unique hashes: not a friend edge
        # Concatenate the error-corrected encodings of the shared preimages and
        # compare a representative sample of positions.
        word_u: List[int] = []
        word_v: List[int] = []
        for i in common:
            word_u.extend(code.encode(owners_u[i]))
            word_v.extend(code.encode(owners_v[i]))
        length = len(word_u)
        sigma_prime = min(max(bandwidth, 64), length)
        sampler = RepresentativeMultisetFamily(domain_size=length, count=sigma_prime, seed=params.seed)
        rng = stream.for_edge(u, v, "uniform-buddy-ecc")
        positions = [p - 1 for p in sampler.member(sampler.sample_index(rng)).points()]
        bits_u = [word_u[p] for p in positions]
        bits_v = [word_v[p] for p in positions]
        ecc_state[(u, v)] = (bits_u, bits_v, positions)
        ecc_messages[(u, v)] = bitstring_message(bits_u, label="acd:uniform-ecc")
        ecc_messages[(v, u)] = bitstring_message(bits_v, label="acd:uniform-ecc")
    network.exchange_chunked(ecc_messages, label="acd:uniform-ecc")
    for (u, v), (bits_u, bits_v, positions) in ecc_state.items():
        disagreements = hamming_distance(bits_u, bits_v)
        if disagreements < eps * len(positions):
            buddies.add((u, v))
    return buddies


# --------------------------------------------------------------------------- #
# The decomposition itself
# --------------------------------------------------------------------------- #

def _unevenness(degrees: Dict[Node, int], neighbors: Dict[Node, Set[Node]], v: Node) -> float:
    dv = degrees[v]
    return sum(
        max(0, degrees[u] - dv) / (degrees[u] + 1) for u in neighbors[v]
    )


def _balanced_candidates(
    topology: Topology, active_set: Set[Node], eps: float
) -> Tuple[Dict[Node, int], List[Edge]]:
    """Induced degrees and the ε-balanced candidate edges, read off the CSR.

    ``degrees[v]`` counts ``v``'s neighbours in ``active_set``.  The
    candidates are the edges with both endpoints active whose degrees are
    ε-balanced, ``min(d_u, d_v) >= (1 - ε)·max(d_u, d_v)``: the CSR upper
    triangle, so each edge appears once with its lower-index endpoint first,
    as ``graph.edges()`` orients it.  Both endpoints of an active edge have
    induced degree at least 1.  The masks are temporaries of this call, so
    they are freed before the buddy sweep, which sets the solve's peak RSS.
    """
    # Imported here: numpy stays out of ``import repro`` until a run needs it.
    import numpy as np

    nodes = topology.nodes
    index = topology.node_index
    indptr, indices = topology.indptr, topology.indices
    active = np.zeros(len(nodes), dtype=bool)
    active[np.fromiter((index[v] for v in active_set), dtype=np.int64,
                       count=len(active_set))] = True
    rows = np.repeat(np.arange(len(nodes), dtype=np.int64), np.diff(indptr))
    live = active[rows] & active[indices]
    degree = np.bincount(rows[live], minlength=len(nodes))
    upper = live & (rows < indices)
    low, high = rows[upper], indices[upper]
    d_low, d_high = degree[low], degree[high]
    balanced = np.minimum(d_low, d_high) >= (1.0 - eps) * np.maximum(d_low, d_high)
    degree_of = degree.tolist()
    degrees = {v: degree_of[index[v]] for v in active_set}
    candidates = [
        (nodes[u], nodes[v])
        for u, v in zip(low[balanced].tolist(), high[balanced].tolist())
    ]
    return degrees, candidates


def compute_acd(
    network: Network,
    params: Optional[ColoringParameters] = None,
    active: Optional[Iterable[Node]] = None,
    seed: Optional[int] = None,
) -> ACDResult:
    """Compute a (deg+1) almost-clique decomposition of the active subgraph.

    ``active`` restricts the decomposition to an induced subgraph (the D1LC
    driver passes the uncolored nodes of the current degree range); degrees
    and neighbourhoods are taken within that subgraph, as the paper's phases
    require.  Runs in ``O(1)`` CONGEST rounds for constant ``ε``.
    """
    params = params or ColoringParameters.small()
    seed = params.seed if seed is None else seed
    rounds_before = network.rounds_used

    active_set = set(active) if active is not None else set(network.nodes)

    # Round 1: participation + induced degree announcement.  The simulator
    # computes neighborhoods/degrees from the graph directly, so the
    # deliveries of both broadcasts are discarded (broadcast_discard).
    # Equal announcements share one frozen Message.
    network.broadcast_discard(
        dict.fromkeys(active_set, Message(content=True, bits=1, label="acd:participation")),
        label="acd:participation",
    )
    neighborhoods: Dict[Node, Set[Node]] = {
        v: {u for u in network.neighbors(v) if u in active_set} for v in active_set
    }
    eps = params.acd_eps
    degrees, candidate_edges = _balanced_candidates(network.topology, active_set, eps)
    universe = max(2, network.number_of_nodes)
    announce = {
        d: integer_message(d, universe, label="acd:degree") for d in set(degrees.values())
    }
    network.broadcast_discard(
        {v: announce[degrees[v]] for v in active_set}, label="acd:degrees"
    )

    if params.uniform:
        friend_edges = _uniform_buddy_edges(
            network, neighborhoods, degrees, candidate_edges, params, seed
        )
    else:
        friend_edges = _similarity_buddy_edges(
            network, neighborhoods, degrees, candidate_edges, params, seed
        )
    friends_of: Dict[Node, Set[Node]] = {v: set() for v in active_set}
    for (u, v) in friend_edges:
        friends_of[u].add(v)
        friends_of[v].add(u)

    # Dense nodes: most of their neighbourhood are friends.
    dense: Set[Node] = {
        v for v in active_set
        if degrees[v] > 0 and len(friends_of[v]) >= (1.0 - 2.0 * eps) * degrees[v]
    }

    # Almost-cliques: connected components of dense nodes under friend edges.
    # Each component has diameter at most 2, so the distributed version is two
    # rounds of min-identifier flooding over friend edges; the simulator
    # computes the same components centrally and charges those rounds.
    clique_of: Dict[Node, int] = {}
    cliques: Dict[int, Set[Node]] = {}
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
        cliques[next_id] = component
        for u in component:
            clique_of[u] = next_id
        next_id += 1
    network.charge_silent_round(label="acd:clique-id")
    network.charge_silent_round(label="acd:clique-id")

    # Post-filter cliques against the Definition 6 degree/membership bounds;
    # evicted nodes (and members of disbanded tiny cliques) fall back to the
    # sparse / uneven classes.
    evicted: Set[Node] = set()
    for clique_id in list(cliques):
        members = cliques[clique_id]
        changed = True
        while changed and members:
            changed = False
            size = len(members)
            for v in sorted(members, key=repr):
                in_clique = len(neighborhoods[v] & members)
                too_big = degrees[v] > (1.0 + 2 * eps) * size
                too_detached = (1.0 + 2 * eps) * max(in_clique, 1) < size
                if too_big or too_detached:
                    members.discard(v)
                    evicted.add(v)
                    clique_of.pop(v, None)
                    changed = True
        if len(members) <= 2:
            for v in members:
                evicted.add(v)
                clique_of.pop(v, None)
            del cliques[clique_id]
    # Renumber the survivors 0..k-1, in the order they were found, so every
    # id fits the ``len(cliques)``-sized universe the leaders announce it in.
    renumbered = {old: new for new, old in enumerate(cliques)}
    cliques = {renumbered[cid]: members for cid, members in cliques.items()}
    clique_of = {v: renumbered[cid] for v, cid in clique_of.items()}

    uneven: Set[Node] = set()
    sparse: Set[Node] = set()
    for v in active_set:
        if v in clique_of:
            continue
        if degrees[v] > 0 and _unevenness(degrees, neighborhoods, v) >= SPARSITY_EPS * degrees[v]:
            uneven.add(v)
        else:
            sparse.add(v)

    return ACDResult(
        sparse_nodes=sparse,
        uneven_nodes=uneven,
        cliques=cliques,
        clique_of=clique_of,
        friend_edges=friend_edges,
        rounds_used=network.rounds_used - rounds_before,
    )
