"""Vectorized ``EstimateSimilarity``: one kernel over the CSR.

:func:`csr_similarity` runs Algorithm 1 on a whole array of node-index pairs
at once: node ``v``'s set is its CSR row under a member mask.  Two callers
use it: the graph-wide sweep of ``estimate_similarity_on_edges`` (every
edge, each on its endpoints' whole neighbourhoods: triangle detection,
Theorem 2, and sparsity estimation, Lemmas 4 and 5) and the ACD buddy test
(Section 4.2), which thresholds it in :func:`columnar_buddy_edges`.

Work that depends on a node alone runs once per node:

* one key table per sweep holds every participating node's base element
  keys, then each node's scaled keys ``(x, j)`` for each ``j`` below
  ``k_max``, the largest scale factor among its swept edges, ``j``-major.  An
  endpoint with factor ``k > 1`` reads one contiguous run of ``k·|S|`` keys
  and with ``k = 1`` its base run, so each scaled key is hashed once per
  sweep, not once per incident edge;
* per-edge setup is columns; ``k``, λ, σ, family seed and index bits are
  computed once per distinct max set size and gathered;
* the member hash, the low filter and one sort run over the endpoints' key
  runs in blocks of at most :data:`_BLOCK_ELEMENTS`.

Byte-identity with the scalar loop of :func:`repro.sampling.similarity.
estimate_similarity_on_edges` is the load-bearing contract:

* each edge's hash-function *index* is the reference's
  ``RngStream.for_edge`` draw, computed for the whole edge list at once by
  its array twin ``RngStream.edge_randrange`` over the endpoints' element
  keys;
* ledger records come from ``DictTransport.charge_chunked``, the accounting
  of the reference's ``exchange_chunked``, on the same label/size
  multisets (``{label}:index`` then ``{label}:indicator``);
* per-endpoint value multisets are reduced by one sort of packed
  ``(edge << 33) | (value << 1) | side`` keys per block instead of Python
  dicts;
* estimates are evaluated in float64, which matches Python exactly because
  every operand is below 2**53.

Neither the per-edge results nor the ledger records depend on the order of
the pairs or on the node numbering.  The pairs are distinct edges by
construction, so none is validated.  The kernel declines — returns ``None``
before any ledger effect, so the caller runs the scalar reference instead —
when

* the transport is not a ``ColumnarTransport`` (the ``dict`` oracle, and
  the fault transport that any fault plan builds);
* the network's tracer digests payloads (``tracer.digest``): the kernel
  charges ledger records without materializing the payloads a digest hashes,
  nor the deliveries, which the reference ignores;
* the parameters leave the exactly-reproducible regime (λ ≥ 2**32 breaks
  the value packing, σ·λ ≥ 2**53 the float reproduction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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

#: Cap on scaled elements hashed per vector block.  Blocks partition the edge
#: list and results are per edge, so the cap only bounds the sweep's
#: temporaries (about a dozen 8-byte arrays of this length, a few tens of
#: MiB).  Larger blocks buy no speed: at ``1 << 22`` the temporaries set the
#: peak RSS of a whole coloring solve (545 MiB against 343 MiB at ``1 << 18``
#: on the benchmark's sparse G(n, p) workload).
_BLOCK_ELEMENTS = 1 << 18

# Packing guards: hash values share a uint64 with a block-local edge id and a
# side bit, and estimates must reproduce Python float division exactly.
_MAX_LAM = 1 << 32
_EXACT_FLOAT = 1 << 53


@dataclass
class SimilaritySweep:
    """What the kernel computed for an edge list.

    ``swept`` masks the caller's edges the kernel swept; an unswept edge has
    an empty endpoint set (the protocol answers 0 there and sends nothing).
    The other arrays follow the swept edges in the caller's order: swept
    edge ``i`` ran with ``(k, family) = families[which[i]]``, has the
    estimate ``estimates[i]`` and the shared hash values
    ``values[offsets[i]:offsets[i + 1]]``, in ascending order.
    """

    swept: "np.ndarray"
    families: List[Tuple[int, RepresentativeHashFamily]]
    which: "np.ndarray"
    estimates: "np.ndarray"
    offsets: "np.ndarray"
    values: "np.ndarray"


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


def _declines(network) -> bool:
    """True off a ``ColumnarTransport`` and under a payload-digesting tracer."""
    if not isinstance(network.transport, ColumnarTransport):
        return True
    return network.tracer is not None and network.tracer.digest


def _sweep(
    transport: ColumnarTransport,
    swept: "np.ndarray",
    eu: "np.ndarray",
    ev: "np.ndarray",
    sizes: "np.ndarray",
    node_keys: "np.ndarray",
    set_keys: Callable[["np.ndarray"], "np.ndarray"],
    params,
    seed: int,
    label: str,
) -> Optional[SimilaritySweep]:
    """The kernel's core: Algorithm 1 on the swept edges ``(eu[i], ev[i])``.

    Endpoints are node ids: ``sizes[x]`` is node ``x``'s set size (positive
    at every endpoint), ``node_keys[x]`` its own element key, and
    ``set_keys(rows)`` the element keys of the sets of the nodes ``rows``
    (ascending ids), concatenated, ``sizes[x]`` keys per node in any order.
    ``swept`` is the caller's mask, passed through.  Returns ``None``
    outside the exactly-reproducible regime, before any ledger effect.
    """
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
    k_max = np.zeros(len(sizes), dtype=np.int64)
    np.maximum.at(k_max, eu, k_arr)
    np.maximum.at(k_max, ev, k_arr)
    runs = np.where(k_max > 1, k_max, 0)
    base = set_keys(np.flatnonzero(k_max))
    base_len = np.where(k_max > 0, sizes, 0)
    base_offsets = np.cumsum(base_len) - base_len
    scaled_offsets = base.size + np.cumsum(sizes * runs) - sizes * runs
    # One run per (node, j), hashed in blocks straight into the table so the
    # build's temporaries stay block-sized.
    run_node = np.repeat(np.arange(len(sizes), dtype=np.int64), runs)
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
        # One sort of (edge << 33) | (value << 1) | side over the low values.
        # Endpoint 2i / 2i+1 of the block is edge i's side 0 / 1.  A value
        # survives for a side iff exactly one of its elements hit it, so the
        # edge shares it iff its (edge, value) run is exactly one side-0
        # entry followed by one side-1 entry.  Block edge ids stay below
        # 2**31 and values below 2**32 (the λ guard), so the packing fits.
        endpoint = np.arange(2 * span, dtype=np.uint64)
        packed = np.repeat((endpoint >> np.uint64(1) << np.uint64(33))
                           | (endpoint & np.uint64(1)), lens)
        packed |= values << np.uint64(1)
        packed = np.sort(packed[low])
        by_edge = packed >> np.uint64(1)
        same = by_edge[1:] == by_edge[:-1]
        bounded = np.zeros(same.size + 2, dtype=bool)
        bounded[1:-1] = same
        pair = same & ~bounded[:-2] & ~bounded[2:] & (packed[1:] != packed[:-1])
        shared_vals = by_edge[:-1][pair]
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
    return SimilaritySweep(swept=swept, families=by_size, which=which,
                           estimates=estimates, offsets=offsets, values=values)


def csr_similarity(
    network,
    members: "np.ndarray",
    degree: "np.ndarray",
    pairs: "np.ndarray",
    params,
    seed: int,
    label: str,
) -> Optional[SimilaritySweep]:
    """``EstimateSimilarity`` on CSR index pairs over member-masked rows, or ``None``.

    ``members`` is a boolean mask over the topology's node index, node
    ``v``'s set is its CSR row under that mask, and ``degree[v]`` is that
    set's size (0 off the mask).  ``pairs`` is an ``(m, 2)`` array of
    node-index pairs, each a distinct edge in either orientation: no pair is
    validated.  Each element's key comes from one ``element_keys_array`` of
    the topology's nodes.  Charges the two ledger rounds of the scalar loop
    in ``estimate_similarity_on_edges`` and computes the same per-edge scale
    factor, family, hash-function index and shared hash values.  The module
    docstring lists when the kernel declines.
    """
    if _declines(network):
        return None
    topology = network.topology
    keys = element_keys_array(topology.nodes)
    eu, ev = pairs[:, 0], pairs[:, 1]
    swept = (degree[eu] > 0) & (degree[ev] > 0)

    def set_keys(rows):
        neighbors, _row_of = topology.gather_rows(rows)
        return keys[neighbors[members[neighbors]]]

    return _sweep(network.transport, swept, eu[swept], ev[swept], degree, keys,
                  set_keys, params, seed, label)


def columnar_buddy_edges(
    network,
    members: "np.ndarray",
    degree: "np.ndarray",
    candidates: "np.ndarray",
    params,
    seed: int,
    label: str,
    threshold_coeff: float,
) -> Optional["np.ndarray"]:
    """The ACD's buddy verdicts over :func:`csr_similarity`, or ``None``.

    A boolean over the ``(m, 2)`` ``candidates``: exactly the edges the
    reference accepts, those whose estimate reaches ``threshold_coeff *
    min(degree[u], degree[v])``, with the kernel's ledger records; ``None``
    when the kernel declines.
    """
    sweep = csr_similarity(network, members, degree, candidates, params, seed, label)
    if sweep is None:
        return None
    estimates = np.zeros(len(candidates), dtype=np.float64)
    estimates[sweep.swept] = sweep.estimates
    return estimates >= threshold_coeff * np.minimum(
        degree[candidates[:, 0]], degree[candidates[:, 1]])
