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
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.bandwidth import bitstring_message, integer_message
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

def _similarity_params(params: ColoringParameters, seed: int) -> SimilarityParameters:
    """The ``EstimateSimilarity`` parameters of the buddy test."""
    # The buddy threshold needs the per-edge estimate to be accurate to a small
    # fraction of min(d_u, d_v); with the simulation-scale σ cap this requires a
    # larger observation window than the default similarity preset, so the cap
    # is raised here (still Θ(log n) up to the ε-dependent constant, i.e. the
    # ACD stays O(1) rounds for constant ε as in Section 4.2).
    sigma_cap = params.similarity_sigma_cap
    if sigma_cap is not None:
        sigma_cap = max(sigma_cap, 4096)
    return SimilarityParameters(
        eps=params.acd_eps / 2.0,
        nu=0.1,
        max_scale=params.similarity_max_scale,
        sigma_cap=sigma_cap,
        seed=seed,
    )


def _similarity_buddy_edges(
    network: Network,
    neighborhoods: Dict[Node, Set[Node]],
    degrees: Dict[Node, int],
    candidate_edges: List[Edge],
    params: ColoringParameters,
    seed: int,
) -> Set[Edge]:
    """Buddy test via ``EstimateSimilarity`` (the Section 4.2 construction).

    The scalar reference of :func:`repro.congest.columnar.sweep.
    columnar_buddy_edges`, which :func:`_buddy_mask` offers the sweep first.
    """
    results = estimate_similarity_on_edges(
        network, neighborhoods, edges=candidate_edges,
        params=_similarity_params(params, seed), seed=seed, label="acd:buddy",
    )
    eps = params.acd_eps
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


def _balanced_candidates(
    topology: Topology, members: "np.ndarray", eps: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Induced degrees and the ε-balanced candidate edges, as arrays over the CSR.

    ``members`` is the active set as a boolean mask over the node index.
    Returns ``(degree, candidates)``.  ``degree[i]`` counts node ``i``'s
    neighbours in the active set (0 for an inactive node).  ``candidates`` is
    an ``(m, 2)`` int64 array of node indices: the edges with both endpoints
    active whose degrees are ε-balanced, ``min(d_u, d_v) >= (1 - ε)·max(d_u,
    d_v)``, as rows of the CSR upper triangle in CSR order, lower index
    first.  So every pair is an edge, none repeats, and both endpoints have
    induced degree at least 1.  The CSR-length masks are temporaries of this
    call, freed before the buddy sweep, which sets the solve's peak RSS.
    """
    indptr, indices = topology.indptr, topology.indices
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    live = members[rows] & members[indices]
    degree = np.bincount(rows[live], minlength=n)
    upper = live & (rows < indices)
    low, high = rows[upper], indices[upper]
    d_low, d_high = degree[low], degree[high]
    balanced = np.minimum(d_low, d_high) >= (1.0 - eps) * np.maximum(d_low, d_high)
    return degree, np.stack((low[balanced], high[balanced]), axis=1)


def _buddy_mask(
    network: Network,
    active_set: Set[Node],
    members: "np.ndarray",
    degree: "np.ndarray",
    candidates: "np.ndarray",
    params: ColoringParameters,
    seed: int,
) -> "np.ndarray":
    """The buddy test's verdict on each candidate row, as a boolean array.

    The columnar kernel decides whether it runs: it declines (None, before
    any ledger effect) off the columnar transport, under payload-digesting
    tracers and outside its exactly-reproducible regime, and a reference
    test runs instead.  Only the reference tests read per-node sets and node
    tuples, so only they build them.
    """
    if not params.uniform:
        # Looked up per call, so a wrapper installed on the module attribute
        # (as tracing and profiling do) takes effect.
        from repro.congest.columnar.sweep import columnar_buddy_edges

        buddies = columnar_buddy_edges(
            network, members, degree, candidates,
            params=_similarity_params(params, seed), seed=seed, label="acd:buddy",
            threshold_coeff=1.0 - 1.5 * params.acd_eps,
        )
        if buddies is not None:
            return buddies
    nodes, index = network.topology.nodes, network.topology.node_index
    neighborhoods = {
        v: {u for u in network.neighbors(v) if u in active_set} for v in active_set
    }
    degree_of = degree.tolist()
    degrees = {v: degree_of[index[v]] for v in active_set}
    edges = [(nodes[u], nodes[v]) for u, v in candidates.tolist()]
    test = _uniform_buddy_edges if params.uniform else _similarity_buddy_edges
    buddies = test(network, neighborhoods, degrees, edges, params, seed)
    return np.fromiter(map(buddies.__contains__, edges), dtype=bool, count=len(edges))


def _components(n: int, pairs: "np.ndarray") -> "np.ndarray":
    """Each node's component root in the graph on ``n`` nodes with edge rows ``pairs``.

    Min-label hooking with full path compression: every round hooks the
    larger root of each edge whose endpoints' roots differ onto the smaller,
    then compresses until every node points at a root.  The root of a
    component is its least index.
    """
    root = np.arange(n, dtype=np.int64)
    u, v = pairs[:, 0], pairs[:, 1]
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        ru, rv = ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def _filter_clique(
    topology: Topology, members: Set[Node], degree_of: Sequence[int], eps: float
) -> None:
    """Definition 6's post-filter of one almost-clique, evicting in place.

    Each pass visits the members in ``repr`` order against the pass's size,
    and an eviction shrinks the in-clique count of the members visited after
    it, so the passes are sequential Python.
    """
    index = topology.node_index
    changed = True
    while changed and members:
        changed = False
        size = len(members)
        for v in sorted(members, key=repr):
            in_clique = len(topology.neighbors(v) & members)
            too_big = degree_of[index[v]] > (1.0 + 2 * eps) * size
            too_detached = (1.0 + 2 * eps) * max(in_clique, 1) < size
            if too_big or too_detached:
                members.discard(v)
                changed = True


def _almost_cliques(
    topology: Topology,
    dense: "np.ndarray",
    friend_pairs: "np.ndarray",
    degree: "np.ndarray",
    eps: float,
) -> "np.ndarray":
    """Each node's almost-clique id, or -1: components, post-filter and renumbering.

    The almost-cliques are the connected components of the dense nodes under
    friend edges, numbered in the order of each component's ``repr``-least
    member in ``sorted(dense, key=repr)``.  The post-filter evicts members
    against Definition 6's degree and membership bounds and disbands
    components left with at most two members; the survivors are renumbered
    0..k-1 in that order, so every id fits the ``len(cliques)``-sized
    universe the leaders announce it in.
    """
    nodes = topology.nodes
    n = len(nodes)
    dense_idx = np.flatnonzero(dense)
    both = dense[friend_pairs[:, 0]] & dense[friend_pairs[:, 1]]
    root = _components(n, friend_pairs[both])
    reprs = [repr(nodes[i]) for i in dense_idx.tolist()]
    by_repr = dense_idx[np.array(sorted(range(len(reprs)), key=reprs.__getitem__),
                                 dtype=np.int64)]
    roots = root[by_repr]
    first = np.unique(roots, return_index=True)[1]
    found = roots[np.sort(first)]
    rank = np.zeros(n, dtype=np.int64)
    rank[found] = np.arange(found.size)
    clique = np.full(n, -1, dtype=np.int64)
    clique[dense_idx] = rank[root[dense_idx]]

    # Definition 6's bounds, checked for every member at once against its
    # whole component.  Evictions only lower in-clique counts, so a component
    # whose members all pass keeps them all; the sequential post-filter runs
    # only on the components where some member fails.
    own = clique[dense_idx]
    size = np.bincount(own, minlength=found.size)
    neighbors, row_of = topology.gather_rows(dense_idx)
    inside = np.bincount(row_of[clique[neighbors] == own[row_of]], minlength=dense_idx.size)
    bound = 1.0 + 2 * eps
    fails = (degree[dense_idx] > bound * size[own]) | (bound * np.maximum(inside, 1) < size[own])
    if fails.any():
        by_clique = dense_idx[np.argsort(own, kind="stable")]
        starts = np.cumsum(size) - size
        degree_of = degree.tolist()
        for cid in np.unique(own[fails]).tolist():
            group = by_clique[starts[cid]:starts[cid] + size[cid]].tolist()
            members = {nodes[i] for i in group}
            _filter_clique(topology, members, degree_of, eps)
            clique[[i for i in group if nodes[i] not in members]] = -1
        size = np.bincount(clique[dense_idx][clique[dense_idx] >= 0], minlength=found.size)
    survives = size > 2
    renumbered = np.where(survives, np.cumsum(survives) - 1, -1)
    clique[dense_idx] = np.where(clique[dense_idx] >= 0, renumbered[clique[dense_idx]], -1)
    return clique


def _set_order_unevenness(
    topology: Topology, active_set: Set[Node], degree_of: Sequence[int], v: Node
) -> float:
    """Definition 5's unevenness of ``v``, summed in the order its set iterates."""
    index = topology.node_index
    dv = degree_of[index[v]]
    neighborhood = {u for u in topology.neighbors(v) if u in active_set}
    return sum(
        max(0, degree_of[index[u]] - dv) / (degree_of[index[u]] + 1) for u in neighborhood
    )


def _uneven(
    topology: Topology,
    active_set: Set[Node],
    members: "np.ndarray",
    degree: "np.ndarray",
    rows: "np.ndarray",
) -> "np.ndarray":
    """Which of the active ``rows`` of positive degree are uneven (Definition 5).

    Node ``v`` is uneven iff ``Σ_u max(0, d_u − d_v)/(d_u + 1) ≥
    SPARSITY_EPS·d_v`` over its active neighbours ``u``: one weighted
    ``bincount`` over the rows' active CSR entries.  That sum adds the same
    terms as the reference's set-order Python sum, in another order.  Each
    of the ``d_v`` terms lies in [0, 1), so each sum is within ``d_v²·2⁻⁵³``
    of the exact value and the two within ``d_v²·2⁻⁵²``.  A node whose array
    sum lies within ``d_v²·2⁻⁵⁰`` of the threshold is decided by the Python
    sum in set order; outside that band both sums fall on the same side.
    """
    neighbors, row_of = topology.gather_rows(rows)
    active = members[neighbors]
    neighbors, row_of = neighbors[active], row_of[active]
    d_u = degree[neighbors]
    d_v = degree[rows]
    terms = np.maximum(d_u - d_v[row_of], 0) / (d_u + 1)
    totals = np.bincount(row_of, weights=terms, minlength=rows.size)
    thresholds = SPARSITY_EPS * d_v
    uneven = totals >= thresholds
    band = d_v.astype(np.float64) ** 2 * 2.0 ** -50
    near = np.flatnonzero(np.abs(totals - thresholds) <= band)
    if near.size:
        nodes, degree_of = topology.nodes, degree.tolist()
        for i in near.tolist():
            row = int(rows[i])
            uneven[i] = (_set_order_unevenness(topology, active_set, degree_of, nodes[row])
                         >= SPARSITY_EPS * degree_of[row])
    return uneven


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

    The classification is array work over the topology's node index (DESIGN
    "ACD on index arrays"): the active set is a mask, degrees, candidates,
    buddy verdicts, friend counts and clique ids are arrays, and only the
    result's sets and dicts hold node labels.
    """
    params = params or ColoringParameters.small()
    seed = params.seed if seed is None else seed
    rounds_before = network.rounds_used
    topology = network.topology
    nodes = topology.nodes

    active_set = set(active) if active is not None else set(network.nodes)

    # Round 1: participation + induced degree announcement.  The simulator
    # reads the induced degrees off the CSR, so the deliveries of both
    # broadcasts are discarded (broadcast_discard).  Equal announcements
    # share one frozen Message.
    network.broadcast_discard(
        dict.fromkeys(active_set, Message(content=True, bits=1, label="acd:participation")),
        label="acd:participation",
    )
    eps = params.acd_eps
    active_list = list(active_set)
    active_index = topology.index_array(active_list)
    members = np.zeros(len(nodes), dtype=bool)
    members[active_index] = True
    degree, candidates = _balanced_candidates(topology, members, eps)
    active_degree = degree[active_index].tolist()
    universe = max(2, network.number_of_nodes)
    announce = {
        d: integer_message(d, universe, label="acd:degree") for d in set(active_degree)
    }
    network.broadcast_discard(
        dict(zip(active_list, map(announce.__getitem__, active_degree))), label="acd:degrees"
    )

    buddy = _buddy_mask(network, active_set, members, degree, candidates, params, seed)
    friend_pairs = candidates[buddy]
    friend_edges = set(zip(map(nodes.__getitem__, friend_pairs[:, 0].tolist()),
                           map(nodes.__getitem__, friend_pairs[:, 1].tolist())))

    # Dense nodes: most of their neighbourhood are friends.
    friends = np.bincount(friend_pairs.ravel(), minlength=len(nodes))
    dense = (degree > 0) & (friends >= (1.0 - 2.0 * eps) * degree)

    # Almost-cliques: connected components of dense nodes under friend edges.
    # Each component has diameter at most 2, so the distributed version is two
    # rounds of min-identifier flooding over friend edges; the simulator
    # computes the same components centrally and charges those rounds.
    clique = _almost_cliques(topology, dense, friend_pairs, degree, eps)
    network.charge_silent_round(label="acd:clique-id")
    network.charge_silent_round(label="acd:clique-id")

    kept = np.flatnonzero(clique >= 0)
    kept = kept[np.argsort(clique[kept], kind="stable")]
    labels = [nodes[i] for i in kept.tolist()]
    ids = clique[kept].tolist()
    clique_of: Dict[Node, int] = dict(zip(labels, ids))
    ends = np.cumsum(np.bincount(clique[kept])).tolist()
    cliques: Dict[int, Set[Node]] = {
        cid: set(labels[start:end]) for cid, (start, end) in enumerate(zip([0] + ends[:-1], ends))
    }

    # Non-dense nodes (evicted ones included) are uneven or sparse.
    rest = np.flatnonzero(members & (clique < 0) & (degree > 0))
    uneven_mask = np.zeros(len(nodes), dtype=bool)
    uneven_mask[rest[_uneven(topology, active_set, members, degree, rest)]] = True
    # Per active node, in the active set's order: 0 sparse, 1 uneven, 2 dense.
    flags = (uneven_mask + 2 * (clique >= 0))[active_index].tolist()
    uneven: Set[Node] = {v for v, flag in zip(active_list, flags) if flag == 1}
    sparse: Set[Node] = {v for v, flag in zip(active_list, flags) if flag == 0}

    return ACDResult(
        sparse_nodes=sparse,
        uneven_nodes=uneven,
        cliques=cliques,
        clique_of=clique_of,
        friend_edges=friend_edges,
        rounds_used=network.rounds_used - rounds_before,
    )
