"""Vectorized ``EstimateSimilarity``: one kernel for every columnar caller.

:func:`columnar_similarity` runs Algorithm 1 on a whole edge list at once.
That sweep is the ACD buddy test (Section 4.2), triangle detection
(Theorem 2) and sparsity estimation (Lemmas 4 and 5); its inner work —
splitmix64 hashing of every scaled neighborhood element, per edge —
vectorizes exactly.  :func:`columnar_buddy_edges` is the ACD's threshold
over the kernel.

Byte-identity with the scalar loop of :func:`repro.sampling.similarity.
estimate_similarity_on_edges` is the load-bearing contract:

* the shared hash-function *index* per edge comes from the same SHA-256
  seeded ``random.Random`` stream (``RngStream.for_edge``), replayed here
  with one reused ``Random`` instance (``rng.seed(x)`` is exactly
  ``Random(x)``) — this part is inherently scalar;
* ledger records replay ``exchange_chunked`` on the same label/size
  multisets (``{label}:index`` then ``{label}:indicator``), through the
  transport's vectorized chunk accounting;
* hash values, low-unique filtering and shared-value extraction run as flat
  uint64 kernels (:mod:`~repro.congest.columnar.kernels`) over a CSR layout
  of the neighborhood element keys — per-endpoint value multisets are
  reduced by a packed ``(endpoint << 32) | value`` unique/count pass instead
  of per-edge Python dicts;
* estimates are evaluated in float64, which matches Python exactly because
  every operand is below 2**53.

The kernel declines — returns ``None`` before any ledger effect, so the
caller runs the scalar reference instead — when

* the transport does not set ``supports_columnar_sweep`` (the ``dict``
  oracle, and a fault-wrapped ``columnar``);
* the network's tracer digests payloads (``wants_payloads``): the kernel
  charges ledger records without materializing the payloads a digest hashes;
* an unordered pair repeats among the swept edges: the reference sends one
  index message per unordered pair and one indicator per directed key, where
  this kernel would charge one of each per list position;
* the parameters leave the exactly-reproducible regime (λ ≥ 2**32 breaks
  the value packing, σ·λ ≥ 2**53 the float reproduction).

The reference ignores the delivered inboxes of both rounds (only the ledger
charge and the locally-computed hash sets matter), so no inbox is
materialised here at all.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.congest.columnar.kernels import (
    element_keys_array,
    hash_values_vec,
    member_prefixes_vec,
    scale_keys_vec,
)
from repro.hashing.representative import RepresentativeHashFamily

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


def _block_ranges(work: "np.ndarray") -> List[Tuple[int, int]]:
    """Partition edges into contiguous blocks of at most ~_BLOCK_ELEMENTS work.

    Greedy, like filling one block at a time: a block grows while its summed
    work stays within the cap, and always takes at least one edge.
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
    factor, family and shared hash values.  ``edges`` is a list of tuples.
    The module docstring lists when the kernel declines.
    """
    transport = network.transport
    if not getattr(transport, "supports_columnar_sweep", False):
        return None
    if getattr(network.tracer, "wants_payloads", False):
        return None

    # ---------------------------------------------------------------- loop A
    # Scalar per-edge setup: set sizes, scale factor k, family, and the
    # SHA-seeded index draw.  Mirrors the reference's per-sweep caches; no
    # ledger effect yet, so declining below stays side-effect free.
    node_sets: Dict[Node, Set[Hashable]] = {}
    families: Dict[int, RepresentativeHashFamily] = {}
    k_cache: Dict[int, int] = {}
    reprs: Dict[Node, Tuple[str, str]] = {}
    node_local: Dict[Node, int] = {}
    local_nodes: List[Node] = []

    seed_repr = repr(int(seed))
    label_repr = repr(label)
    rng = random.Random()
    sha256 = hashlib.sha256

    states: List[Optional[Tuple[int, RepresentativeHashFamily]]] = []
    swept: Set[Edge] = set()
    validate_pairs: List[Tuple[Node, Node]] = []
    eu_list: List[int] = []
    ev_list: List[int] = []
    k_list: List[int] = []
    lam_list: List[int] = []
    sigma_list: List[int] = []
    fseed_list: List[int] = []
    index_list: List[int] = []
    ibits_list: List[int] = []

    def _set_of(node: Node) -> Set[Hashable]:
        members = node_sets.get(node)
        if members is None:
            members = set(sets.get(node, ()))
            node_sets[node] = members
        return members

    def _reprs_of(node: Node) -> Tuple[str, str]:
        cached = reprs.get(node)
        if cached is None:
            text = repr(node)
            cached = (text, repr(text))
            reprs[node] = cached
        return cached

    def _local_of(node: Node) -> int:
        slot = node_local.get(node)
        if slot is None:
            slot = len(local_nodes)
            node_local[node] = slot
            local_nodes.append(node)
        return slot

    for edge in edges:
        u, v = edge
        set_u = _set_of(u)
        set_v = _set_of(v)
        if not set_u or not set_v:
            states.append(None)
            continue
        if edge in swept or (v, u) in swept:
            return None  # a repeated pair, which the reference charges once
        swept.add(edge)
        du = len(set_u)
        dv = len(set_v)
        max_size = du if du >= dv else dv
        k = k_cache.get(max_size)
        if k is None:
            k = params.scale_factor(max_size)
            k_cache[max_size] = k
        lam_arg = max_size * k
        family = families.get(lam_arg)
        if family is None:
            family = params.family(lam_arg)
            families[lam_arg] = family
        if family.lam >= _MAX_LAM or family.sigma * family.lam >= _EXACT_FLOAT:
            return None  # outside the exactly-reproducible regime
        # RngStream(seed).for_edge(u, v, label) -> Random(sha256 digest of
        # "\x1f".join(repr(p) for p in (seed, "edge", sorted-repr-pair,
        # label))), replayed with one reused Random (seed(x) == Random(x)).
        ru, rru = _reprs_of(u)
        rv, rrv = _reprs_of(v)
        if ru <= rv:
            key_repr = f"({rru}, {rrv})"
            sender, receiver = u, v
        else:
            key_repr = f"({rrv}, {rru})"
            sender, receiver = v, u
        digest = sha256(
            "\x1f".join((seed_repr, "'edge'", key_repr, label_repr)).encode("utf-8")
        ).digest()
        rng.seed(int.from_bytes(digest[:8], "big"))
        index = rng.randrange(family.size)

        states.append((k, family))
        validate_pairs.append((sender, receiver))
        eu_list.append(_local_of(u))
        ev_list.append(_local_of(v))
        k_list.append(k)
        lam_list.append(family.lam)
        sigma_list.append(family.sigma)
        fseed_list.append(family.family_seed)
        index_list.append(index)
        ibits_list.append(family.index_bits)

    # Validation, in the reference's order (the index-payload round validates
    # every participating edge before anything is charged).
    neighbor_sets = transport.topology.neighbor_sets
    for sender, receiver in validate_pairs:
        nbrs = neighbor_sets.get(sender)
        if sender == receiver or nbrs is None or receiver not in nbrs:
            transport._validate_edge(sender, receiver)  # canonical ProtocolError

    # Round 1: the hash-function index (log F bits per edge, one direction).
    transport.charge_chunked_sizes(
        f"{label}:index", np.array(ibits_list, dtype=np.int64)
    )

    count = len(eu_list)
    k_arr = np.array(k_list, dtype=np.int64)
    lam_i64 = np.array(lam_list, dtype=np.int64)
    sigma_i64 = np.array(sigma_list, dtype=np.int64)
    shared_counts = np.zeros(count, dtype=np.int64)
    shared_blocks: List["np.ndarray"] = []
    if count:
        # CSR layout of the participating neighborhoods' element keys.
        key_arrays = [element_keys_array(node_sets[node]) for node in local_nodes]
        key_counts = np.fromiter(
            (arr.size for arr in key_arrays), dtype=np.int64, count=len(key_arrays)
        )
        key_offsets = np.zeros(len(key_arrays) + 1, dtype=np.int64)
        np.cumsum(key_counts, out=key_offsets[1:])
        key_storage = np.concatenate(key_arrays)

        eu = np.array(eu_list, dtype=np.int64)
        ev = np.array(ev_list, dtype=np.int64)
        lam_u64 = lam_i64.astype(np.uint64)
        sigma_u64 = sigma_i64.astype(np.uint64)
        prefixes = member_prefixes_vec(
            np.array(fseed_list, dtype=np.uint64), np.array(index_list, dtype=np.uint64)
        )

        work = k_arr * (key_counts[eu] + key_counts[ev])
        for start, stop in _block_ranges(work):
            span = stop - start
            # Endpoints interleave as (u0, v0, u1, v1, ...): endpoint id
            # 2i/2i+1 within the block, edge id = endpoint >> 1.
            ep_nodes = np.empty(2 * span, dtype=np.int64)
            ep_nodes[0::2] = eu[start:stop]
            ep_nodes[1::2] = ev[start:stop]
            k_ep = np.repeat(k_arr[start:stop], 2)
            lens = key_counts[ep_nodes]
            total_base = int(lens.sum())
            # Gather each endpoint's base keys into one contiguous run.
            run_ends = np.cumsum(lens)
            flat = np.arange(total_base, dtype=np.int64)
            flat -= np.repeat(run_ends - lens, lens)
            flat += np.repeat(key_offsets[ep_nodes], lens)
            base_keys = key_storage[flat]
            k_elem = np.repeat(k_ep, lens)
            if int(k_ep.max()) > 1:
                # Scale-up: every base element x expands to the keys of
                # (x, 0) .. (x, k-1).  Expansion order within an endpoint is
                # irrelevant — the downstream reduction only counts values.
                total = int(k_elem.sum())
                keys_rep = np.repeat(base_keys, k_elem)
                exp_ends = np.cumsum(k_elem)
                jj = np.arange(total, dtype=np.int64)
                jj -= np.repeat(exp_ends - k_elem, k_elem)
                kk = np.repeat(k_elem, k_elem)
                scaled = scale_keys_vec(keys_rep, jj.astype(np.uint64))
                keys_final = np.where(kk == 1, keys_rep, scaled)
                elem_per_ep = lens * k_ep
            else:
                keys_final = base_keys
                elem_per_ep = lens
            ep_ids = np.repeat(np.arange(2 * span, dtype=np.int64), elem_per_ep)
            edge_ids = ep_ids >> 1
            values = hash_values_vec(
                prefixes[start:stop][edge_ids],
                keys_final,
                lam_u64[start:stop][edge_ids],
            )
            low = values <= sigma_u64[start:stop][edge_ids]
            # Pack (endpoint, value) into one uint64; a value survives for
            # its endpoint iff exactly one element hit it (low_unique), and
            # an edge shares a value iff both its endpoints' survivors hold
            # it (count == 2 after collapsing endpoint -> edge).
            packed = (ep_ids[low].astype(np.uint64) << np.uint64(32)) | values[low]
            unique, counts = np.unique(packed, return_counts=True)
            survivors = unique[counts == 1]
            by_edge = (survivors >> np.uint64(33) << np.uint64(32)) | (
                survivors & np.uint64(0xFFFFFFFF)
            )
            shared_vals, shared_cnt = np.unique(by_edge, return_counts=True)
            shared_vals = shared_vals[shared_cnt == 2]
            if shared_vals.size:
                # Sorted by (edge, value), so the blocks concatenate into
                # one ascending run per swept edge.
                edge_hits = (shared_vals >> np.uint64(32)).astype(np.int64)
                shared_counts[start:stop] = np.bincount(edge_hits, minlength=span)
                shared_blocks.append(shared_vals & np.uint64(0xFFFFFFFF))

    # Round 2: both endpoints' σ-bit indicators (two directed messages per
    # participating edge, max(1, σ) bits each — σ is already >= 1).
    transport.charge_chunked_sizes(
        f"{label}:indicator", np.repeat(np.maximum(sigma_i64, 1), 2)
    )

    # Estimates in float64 == Python float exactly (all operands < 2**53;
    # int/int true division is correctly rounded in both).
    estimates = (shared_counts * lam_i64).astype(np.float64)
    estimates /= (sigma_i64 * k_arr).astype(np.float64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(shared_counts, out=offsets[1:])
    values = (
        np.concatenate(shared_blocks) if shared_blocks else np.empty(0, dtype=np.uint64)
    )
    return SimilaritySweep(states=states, estimates=estimates, offsets=offsets,
                           values=values)


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
