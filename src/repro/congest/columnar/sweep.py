"""Vectorized ``EstimateSimilarity``: one kernel for every columnar caller.

:func:`columnar_similarity` runs Algorithm 1 on a whole edge list at once:
the ACD buddy test (Section 4.2, thresholded by :func:`columnar_buddy_edges`),
triangle detection (Theorem 2) and sparsity estimation (Lemmas 4 and 5).
Work that depends on a node alone runs once per node:

* one key table per sweep holds every participating node's base element
  keys, then each node's scaled keys ``(x, j)`` for each ``j`` below
  ``k_max``, the largest scale factor among its swept edges, ``j``-major.  An
  endpoint with factor ``k > 1`` reads one contiguous run of ``k·|S|`` keys
  and with ``k = 1`` its base run, so each scaled key is hashed once per
  sweep, not once per incident edge;
* per-edge setup is columns; ``k``, λ, σ, family seed and index bits are
  computed once per distinct max set size and gathered;
* the member hash, the low filter and the two unique passes run over the
  endpoints' key runs in blocks of at most :data:`_BLOCK_ELEMENTS`.

Byte-identity with the scalar loop of :func:`repro.sampling.similarity.
estimate_similarity_on_edges` is the load-bearing contract:

* each edge's hash-function *index* is the reference's
  ``RngStream.for_edge`` draw, computed for the whole edge list at once by
  its array twin ``RngStream.edge_randrange`` over one ``element_keys_array``
  of the swept nodes; topology validation, in the reference's order, is the
  per-edge Python left;
* ledger records come from ``DictTransport.charge_chunked``, the accounting
  of the reference's ``exchange_chunked``, on the same label/size
  multisets (``{label}:index`` then ``{label}:indicator``);
* per-endpoint value multisets are reduced by a packed
  ``(endpoint << 32) | value`` unique/count pass instead of Python dicts;
* estimates are evaluated in float64, which matches Python exactly because
  every operand is below 2**53.

Every requested pair is validated before the first round, whatever the sets
hold.  The kernel declines — returns ``None`` before any ledger effect, so
the caller runs the scalar reference instead — when

* the transport is not a ``ColumnarTransport`` (the ``dict`` oracle, and
  the fault transport that any fault plan builds);
* the network's tracer digests payloads (``tracer.digest``): the kernel
  charges ledger records without materializing the payloads a digest hashes,
  nor the inboxes, which the reference ignores;
* an unordered pair repeats among the swept edges: the reference sends one
  index message per unordered pair and one indicator per directed key, where
  this kernel would charge one of each per list position;
* the parameters leave the exactly-reproducible regime (λ ≥ 2**32 breaks
  the value packing, σ·λ ≥ 2**53 the float reproduction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.congest.columnar.kernels import (
    element_keys_array,
    hash_values_vec,
    member_prefixes_vec,
    scale_keys_vec,
)
from repro.congest.columnar.transport import ColumnarTransport
from repro.hashing.representative import RepresentativeHashFamily
from repro.utils.rng import RngStream

Node = Hashable
Edge = Tuple[Node, Node]

#: Cap on scaled elements hashed per vector block.  Blocks partition the edge
#: list and results are per edge, so the cap only bounds the sweep's
#: temporaries (about a dozen 8-byte arrays of this length, a few tens of
#: MiB).  Larger blocks buy no speed: at ``1 << 22`` the temporaries set the
#: peak RSS of a whole coloring solve (545 MiB against 343 MiB at ``1 << 18``
#: on the benchmark's sparse G(n, p) workload).
_BLOCK_ELEMENTS = 1 << 18

# Packing guards: endpoint-local hash values share a uint64 with a 32-bit
# endpoint id, and estimates must reproduce Python float division exactly.
_MAX_LAM = 1 << 32
_EXACT_FLOAT = 1 << 53


@dataclass
class SimilaritySweep:
    """What :func:`columnar_similarity` computed for an edge list.

    ``states`` follows the caller's edge order: ``(k, family)`` for an edge
    the kernel swept, ``None`` for an edge with an empty endpoint set (the
    protocol answers 0 there and sends nothing).  The arrays follow the swept
    edges in that order: swept edge ``i`` has the estimate ``estimates[i]``
    and the shared hash values ``values[offsets[i]:offsets[i + 1]]``, in
    ascending order.
    """

    states: List[Optional[Tuple[int, RepresentativeHashFamily]]]
    estimates: "np.ndarray"
    offsets: "np.ndarray"
    values: "np.ndarray"


def validate_pairs(transport, edges: Iterable[Edge]) -> None:
    """Raise the index round's ``ProtocolError`` for the first pair that is no edge.

    The reference's index round sends from the endpoint with the smaller
    ``repr``, so that is the sender the canonical error names.
    """
    neighbor_sets = transport.topology.neighbor_sets
    for u, v in edges:
        nbrs = neighbor_sets.get(u)
        if nbrs is None or v not in nbrs:
            sender, receiver = (u, v) if repr(u) <= repr(v) else (v, u)
            transport._validate_edge(sender, receiver)


def _ranges(starts: "np.ndarray", lengths: "np.ndarray") -> "np.ndarray":
    """The concatenation of ``arange(s, s + n)`` over aligned starts and lengths."""
    ends = np.cumsum(lengths)
    flat = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    flat += np.repeat(starts - (ends - lengths), lengths)
    return flat


def _block_ranges(work: "np.ndarray") -> List[Tuple[int, int]]:
    """Partition items (edges, key runs) into blocks of at most ~_BLOCK_ELEMENTS work.

    Greedy, like filling one block at a time: a block grows while its summed
    work stays within the cap, and always takes at least one item.
    """
    ends = np.cumsum(work)
    blocks: List[Tuple[int, int]] = []
    start = 0
    done = 0
    while start < len(work):
        stop = int(np.searchsorted(ends, done + _BLOCK_ELEMENTS, side="right"))
        stop = max(stop, start + 1)
        blocks.append((start, stop))
        done = int(ends[stop - 1])
        start = stop
    return blocks


def columnar_similarity(
    network,
    sets: Mapping[Node, Set[Hashable]],
    edges: List[Edge],
    params,
    seed: int,
    label: str,
) -> Optional[SimilaritySweep]:
    """``EstimateSimilarity`` on every edge of ``edges``, or ``None`` to decline.

    Charges the two ledger rounds of the scalar loop in
    ``estimate_similarity_on_edges`` and computes the same per-edge scale
    factor, family, hash-function index (one ``RngStream.edge_randrange``
    pass, the array twin of ``for_edge(u, v, label).randrange``) and shared
    hash values.  ``edges`` is a list of tuples.  The module docstring lists
    when the kernel declines.
    """
    transport = network.transport
    if not isinstance(transport, ColumnarTransport):
        return None
    if network.tracer is not None and network.tracer.digest:
        return None

    # ------------------------------------------------------ per-edge columns
    # Local node ids in first-seen order; endpoints interleave (u0, v0, ...).
    node_local: Dict[Node, int] = {}
    local_of = node_local.setdefault
    endpoints = np.fromiter(
        (local_of(node, len(node_local)) for u, v in edges for node in (u, v)),
        dtype=np.int64, count=2 * len(edges),
    )
    local_nodes = list(node_local)
    # What the reference's set(...) copy holds; a set is not copied, which
    # spares the garbage collector one tracked object per node.
    node_sets = [
        members if isinstance(members, (set, frozenset)) else set(members)
        for members in (sets.get(node, ()) for node in local_nodes)
    ]
    sizes = np.fromiter(map(len, node_sets), dtype=np.int64, count=len(node_sets))
    live = (sizes[endpoints[0::2]] > 0) & (sizes[endpoints[1::2]] > 0)
    eu = endpoints[0::2][live]
    ev = endpoints[1::2][live]
    pairs = (np.minimum(eu, ev) << 32) | np.maximum(eu, ev)
    if np.unique(pairs).size < pairs.size:
        return None  # a repeated pair, which the reference charges once

    # k and the family depend on the edge's max set size alone.
    distinct, which = np.unique(np.maximum(sizes[eu], sizes[ev]), return_inverse=True)
    by_size: List[Tuple[int, RepresentativeHashFamily]] = []
    for max_size in distinct.tolist():
        k = params.scale_factor(max_size)
        family = params.family(max_size * k)
        if family.lam >= _MAX_LAM or family.sigma * family.lam >= _EXACT_FLOAT:
            return None  # outside the exactly-reproducible regime
        by_size.append((k, family))

    def column(values, dtype=np.int64):
        """A per-distinct-size column, gathered to one entry per swept edge."""
        return np.array(values, dtype=dtype)[which]

    edges_per_size = np.bincount(which, minlength=len(by_size)).tolist()

    def size_counts(bits_per_size, messages_per_edge):
        """``{payload bits: message count}`` for one round's messages."""
        tally: Counter = Counter()
        for bits, edge_count in zip(bits_per_size, edges_per_size):
            tally[bits] += messages_per_edge * edge_count
        return tally

    k_arr = column([k for k, _ in by_size])
    lam = column([family.lam for _, family in by_size])
    sigma = column([family.sigma for _, family in by_size])

    validate_pairs(transport, edges)  # in the reference's order, before round 1
    node_keys = element_keys_array(local_nodes)
    indices = RngStream(seed).edge_randrange(
        node_keys[eu], node_keys[ev], column([family.size for _, family in by_size]), label,
    )
    prefixes = member_prefixes_vec(
        column([family.family_seed for _, family in by_size], np.uint64), indices,
    )

    # Round 1: the hash-function index (log F bits per edge, one direction).
    transport.charge_chunked(
        f"{label}:index", size_counts([family.index_bits for _, family in by_size], 1)
    )

    # ------------------------------------------------------------ key table
    # Every participating node's base keys, then each node's k_max scaled
    # runs (x, j) for j = 0 .. k_max - 1, j-major, when its largest k exceeds
    # 1: an endpoint reads k·|S| contiguous keys, or its base run when k = 1.
    k_max = np.zeros(len(local_nodes), dtype=np.int64)
    np.maximum.at(k_max, eu, k_arr)
    np.maximum.at(k_max, ev, k_arr)
    runs = np.where(k_max > 1, k_max, 0)
    base = element_keys_array(
        [x for node in np.flatnonzero(k_max).tolist() for x in node_sets[node]]
    )
    base_len = np.where(k_max > 0, sizes, 0)
    base_offsets = np.cumsum(base_len) - base_len
    scaled_offsets = base.size + np.cumsum(sizes * runs) - sizes * runs
    # One run per (node, j), hashed in blocks straight into the table so the
    # build's temporaries stay block-sized.
    run_node = np.repeat(np.arange(len(local_nodes), dtype=np.int64), runs)
    run_len = sizes[run_node]
    run_j = _ranges(np.zeros_like(runs), runs).astype(np.uint64)
    table = np.empty(base.size + int(run_len.sum()), dtype=np.uint64)
    table[:base.size] = base
    at = base.size
    for start, stop in _block_ranges(run_len):
        lens = run_len[start:stop]
        keys = base[_ranges(base_offsets[run_node[start:stop]], lens)]
        table[at:at + keys.size] = scale_keys_vec(keys, np.repeat(run_j[start:stop], lens))
        at += keys.size
    del base, base_len, run_node, run_len, run_j

    ep_node = np.empty(2 * eu.size, dtype=np.int64)
    ep_node[0::2] = eu
    ep_node[1::2] = ev
    ep_k = np.repeat(k_arr, 2)
    ep_len = sizes[ep_node] * ep_k
    ep_start = np.where(ep_k > 1, scaled_offsets[ep_node], base_offsets[ep_node])
    work = ep_len[0::2] + ep_len[1::2]

    count = eu.size
    lam_u64 = lam.astype(np.uint64)
    sigma_u64 = sigma.astype(np.uint64)
    shared_counts = np.zeros(count, dtype=np.int64)
    shared_blocks: List["np.ndarray"] = []
    for start, stop in _block_ranges(work):
        span = stop - start
        lens = ep_len[2 * start:2 * stop]
        per_edge = work[start:stop]
        values = hash_values_vec(
            np.repeat(prefixes[start:stop], per_edge),
            table[_ranges(ep_start[2 * start:2 * stop], lens)],
            np.repeat(lam_u64[start:stop], per_edge),
        )
        low = values <= np.repeat(sigma_u64[start:stop], per_edge)
        # Pack (endpoint, value) into one uint64; a value survives for its
        # endpoint iff exactly one element hit it (low_unique), and an edge
        # shares a value iff both its endpoints' survivors hold it (count ==
        # 2 after collapsing endpoint -> edge).  Endpoint ids are 2i / 2i+1
        # within the block, so the edge id is endpoint >> 1.
        packed = np.repeat(np.arange(2 * span, dtype=np.uint64) << np.uint64(32), lens)
        packed |= values
        unique, counts = np.unique(packed[low], return_counts=True)
        survivors = unique[counts == 1]
        by_edge = (survivors >> np.uint64(33) << np.uint64(32)) | (
            survivors & np.uint64(0xFFFFFFFF)
        )
        shared_vals, shared_cnt = np.unique(by_edge, return_counts=True)
        shared_vals = shared_vals[shared_cnt == 2]
        if shared_vals.size:
            # Sorted by (edge, value), so the blocks concatenate into one
            # ascending run per swept edge.
            edge_hits = (shared_vals >> np.uint64(32)).astype(np.int64)
            shared_counts[start:stop] = np.bincount(edge_hits, minlength=span)
            shared_blocks.append(shared_vals & np.uint64(0xFFFFFFFF))

    # Round 2: both endpoints' σ-bit indicators (two directed messages per
    # participating edge, max(1, σ) bits each — σ is already >= 1).
    transport.charge_chunked(
        f"{label}:indicator",
        size_counts([max(1, family.sigma) for _, family in by_size], 2),
    )

    # Estimates in float64 == Python float exactly (all operands < 2**53;
    # int/int true division is correctly rounded in both).
    estimates = (shared_counts * lam).astype(np.float64)
    estimates /= (sigma * k_arr).astype(np.float64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(shared_counts, out=offsets[1:])
    values = (
        np.concatenate(shared_blocks) if shared_blocks else np.empty(0, dtype=np.uint64)
    )
    codes = np.full(len(edges), len(by_size), dtype=np.int64)
    codes[live] = which
    lookup = by_size + [None]
    return SimilaritySweep(states=[lookup[code] for code in codes.tolist()],
                           estimates=estimates, offsets=offsets, values=values)


def columnar_buddy_edges(
    network,
    sets: Mapping[Node, Set[Hashable]],
    degrees: Mapping[Node, int],
    edges: List[Edge],
    params,
    seed: int,
    label: str,
    threshold_coeff: float,
) -> Optional[Set[Edge]]:
    """The ACD's buddy edges over :func:`columnar_similarity`, or ``None``.

    Exactly the set the reference gives — the edges whose estimate reaches
    ``threshold_coeff * min(degrees[u], degrees[v])`` — with the kernel's
    ledger records; ``None`` when the kernel declines.
    """
    edges = [tuple(edge) for edge in edges]
    sweep = columnar_similarity(network, sets, edges, params, seed, label)
    if sweep is None:
        return None
    swept = [edge for edge, state in zip(edges, sweep.states) if state is not None]
    min_degrees = np.fromiter(
        (min(degrees[u], degrees[v]) for u, v in swept),
        dtype=np.float64, count=len(swept),
    )
    hits = np.flatnonzero(sweep.estimates >= threshold_coeff * min_degrees)
    buddies: Set[Edge] = {swept[i] for i in hits.tolist()}
    for (u, v), state in zip(edges, sweep.states):
        if state is None and 0.0 >= threshold_coeff * min(degrees[u], degrees[v]):
            buddies.add((u, v))
    return buddies
