"""``EstimateSimilarity`` (Algorithm 1 of the paper).

Two endpoints of an edge hold sets ``S_u`` and ``S_v`` from a common universe
and want an estimate of ``|S_u ∩ S_v|`` accurate to ``ε·max(|S_u|, |S_v|)``
using a constant number of small messages.  The protocol:

1. if either set is empty, return 0;
2. scale both sets up by a factor ``k`` (Cartesian product with ``[k]``) so
   the representative-family hypotheses of Lemma 1 hold even for small sets;
3. agree on a random member ``h`` of a representative family with parameters
   ``λ = 8·max/ε``, ``β = ε/4``, ``α = ε²/8`` (one ``log F``-bit message;
   in the network form the index is the edge's shared draw,
   ``RngStream.for_edge(u, v, label).randrange(F)``);
4. each endpoint sends the ``σ``-bit indicator of ``h(T)`` for
   ``T = S ¬_h S`` (its elements with a unique low hash value);
5. output ``|h(T_u) ∩ h(T_v)| · λ / (σ·k)``.

Lemma 2 shows the output is within ``ε·max(|S_u|, |S_v|)`` of the truth with
probability ``1 − ν``, at a cost of ``O(ε^{-4}·log(1/ν) + log log|U| +
log max(|S_u|,|S_v|))`` bits.

The protocol runs as :func:`estimate_similarity_on_edges`: simultaneously on
every requested edge of a :class:`~repro.congest.network.Network`, charging
the messages to the network ledger.  Sparsity estimation, ACD computation and
triangle detection use it, and the Lemma 2 tests run it on a one-edge network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.congest.bandwidth import index_message
from repro.congest.message import Message
from repro.congest.network import Network
from repro.hashing.keys import combine_part_keys, element_key
from repro.hashing.representative import RepresentativeHashFamily
from repro.utils.rng import RngStream

Node = Hashable
Edge = Tuple[Node, Node]


def check_eps(eps: float) -> None:
    """Raise ``ValueError`` naming ``eps`` unless ``0 < eps < 1``."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")


@dataclass(frozen=True)
class SimilarityParameters:
    """Tunable parameters of ``EstimateSimilarity``.

    ``eps`` and ``nu`` are the accuracy and failure probability of Lemma 2.
    ``scale_constant`` is the ``96·ln(12/ν)`` factor in the definition of the
    scale-up factor ``k`` (step 2 of Algorithm 1); ``max_scale`` caps ``k`` so
    that graph-wide sweeps on a laptop stay tractable (the paper has no such
    cap — it is a pure running-time knob of the simulation, recorded in
    DESIGN.md, and the default of ``None`` reproduces the paper exactly).
    """

    eps: float = 0.25
    nu: float = 0.05
    scale_constant: float = 96.0
    max_scale: Optional[int] = None
    sigma_cap: Optional[int] = None
    universe_size: int = 1 << 20
    seed: int = 0

    @classmethod
    def practical(cls, eps: float = 0.3, nu: float = 0.1, seed: int = 0) -> "SimilarityParameters":
        """Laptop-scale preset used by the graph-wide primitives.

        The paper's constants (``k``'s ``96·ε^{-3}·ln(12/ν)`` scale-up and
        ``σ = Θ(ε^{-4} log(1/ν))``) are asymptotically tight but enormous for
        per-edge sweeps over thousands of edges in a Python simulation.  This
        preset caps the scale-up factor and ``σ``; the protocol and its
        communication pattern are unchanged, only the concentration constants
        shrink.  DESIGN.md records this as a simulation knob.
        """
        return cls(eps=eps, nu=nu, max_scale=4, sigma_cap=1024, seed=seed)

    def __post_init__(self):
        check_eps(self.eps)
        if not 0 < self.nu < 1:
            raise ValueError(f"nu must be in (0, 1), got {self.nu}")
        if self.scale_constant <= 0:
            raise ValueError("scale_constant must be positive")

    def scale_factor(self, max_size: int) -> int:
        """The scale-up factor ``k`` of Algorithm 1, step 2."""
        if max_size <= 0:
            return 1
        k = math.ceil(
            self.scale_constant * self.eps ** -3 * math.log(12.0 / self.nu) / max_size
        )
        k = max(1, int(k))
        if self.max_scale is not None:
            k = min(k, max(1, int(self.max_scale)))
        return k

    def family(self, max_size: int, label: str = "similarity") -> RepresentativeHashFamily:
        """The representative family of Algorithm 1, step 4."""
        lam = max(2, int(math.ceil(8.0 * max_size / self.eps)))
        return RepresentativeHashFamily(
            universe_label=label,
            universe_size=self.universe_size,
            lam=lam,
            alpha=self.eps ** 2 / 8.0,
            beta=self.eps / 4.0,
            nu=self.nu,
            seed=self.seed,
            sigma_cap=self.sigma_cap,
        )


@dataclass
class SimilarityResult:
    """Outcome of ``EstimateSimilarity`` on one edge."""

    estimate: float
    bits_exchanged: int
    scale_factor: int
    sigma: int
    lam: int
    shared_hash_values: FrozenSet[int]


def _indicator_message(hashes: Set[int], sigma: int, label: str) -> Message:
    """The ``σ``-bit indicator of ``hashes ⊆ [sigma]``, charged ``σ`` bits.

    The charge is the full indicator length (``max(1, sigma)`` bits, exactly
    what :func:`~repro.congest.bandwidth.bitstring_message` declares for a
    ``σ``-position 0/1 string); the *content* carries the equivalent sparse
    encoding — the sorted 1-positions — so a graph-wide sweep does not
    materialise a ``σ``-length tuple per endpoint per edge.  Receivers only
    ever intersect the marked positions, and the simulation reads the hash
    sets directly, so the dense and sparse encodings are interchangeable.
    """
    return Message(content=tuple(sorted(hashes)), bits=max(1, sigma), label=label)


def _result(k: int, family: RepresentativeHashFamily,
            shared: FrozenSet[int]) -> SimilarityResult:
    """Step 5's output for one execution, from its ``k``, family and shared values."""
    return SimilarityResult(
        estimate=len(shared) * family.lam / (family.sigma * k),
        bits_exchanged=family.index_bits + 2 * family.sigma,
        scale_factor=k,
        sigma=family.sigma,
        lam=family.lam,
        shared_hash_values=shared,
    )


def _empty_result() -> SimilarityResult:
    """Step 1's output when either set is empty."""
    return SimilarityResult(
        estimate=0.0,
        bits_exchanged=1,
        scale_factor=1,
        sigma=0,
        lam=0,
        shared_hash_values=frozenset(),
    )


def _sweep_results(edges: List[Edge], sweep) -> Dict[Edge, SimilarityResult]:
    """Per-edge results of a kernel sweep, keyed like the loop's: :func:`_result`,
    with its fields read once per distinct ``(k, family)`` state, not per edge."""
    values = sweep.values.tolist()
    bounds = sweep.offsets.tolist()
    which = sweep.which.tolist()
    fields = [
        (k, family.lam, family.sigma, family.sigma * k, family.index_bits + 2 * family.sigma)
        for k, family in sweep.families
    ]
    results: Dict[Edge, SimilarityResult] = {}
    row = 0
    for edge, swept in zip(edges, sweep.swept.tolist()):
        if not swept:
            results[edge] = _empty_result()
            continue
        k, lam, sigma, scale, bits = fields[which[row]]
        shared = frozenset(values[bounds[row]:bounds[row + 1]])
        results[edge] = SimilarityResult(len(shared) * lam / scale, bits, k, sigma, lam, shared)
        row += 1
    return results


def estimate_similarity_on_edges(
    network: Network,
    sets: Mapping[Node, Set[Hashable]],
    edges: Optional[Iterable[Edge]] = None,
    params: SimilarityParameters = SimilarityParameters(),
    seed: int = 0,
    label: str = "estimate-similarity",
) -> Dict[Edge, SimilarityResult]:
    """Run ``EstimateSimilarity`` simultaneously on many edges of a network.

    Every requested edge runs the two-party protocol in parallel; the whole
    batch costs a constant number of CONGEST rounds (one for the shared hash
    index, one synchronous exchange of the ``σ``-bit indicators), which is the
    point of the paper's construction.  Results are keyed by the edge in the
    orientation given (``(u, v)`` and ``(v, u)`` would hold the same result).

    Each edge's hash-function index is one ``randrange`` of its splitmix64
    edge stream (``RngStream.for_edge``), so both endpoints draw the same
    index whichever orientation is given.  On a columnar network the whole
    sweep runs as one vectorized kernel
    (:func:`repro.congest.columnar.sweep.columnar_similarity`, which draws
    every index in one pass of the stream's array twin) with the same
    results and ledger records; the loop below is the reference it is tested
    against, and runs whenever the kernel declines.
    """
    if edges is None:
        edges = list(network.graph.edges())
    edges = [tuple(edge) for edge in edges]

    # The kernel decides whether it runs and declines before any ledger
    # effect, so nothing is charged twice.
    from repro.congest.columnar.sweep import columnar_similarity, validate_pairs

    sweep = columnar_similarity(network, sets, edges, params, seed, label)
    if sweep is not None:
        return _sweep_results(edges, sweep)
    validate_pairs(network.transport, edges)  # whatever the sets hold, before round 1
    stream = RngStream(seed)

    # Per-sweep caches.  A node of degree d participates in up to d requested
    # edges; without these caches its set is copied, scaled and re-keyed once
    # per *edge* instead of once per *node*, which used to dominate the ACD's
    # wall-clock.  All cached values are pure functions of their keys, so the
    # sweep's outputs are bit-identical to the uncached computation:
    #
    # * ``node_sets``   — one set copy per node;
    # * ``families``    — ``params.family(lam_arg)`` is deterministic in its
    #   argument (``params`` is fixed for the sweep), so equal ``max_size * k``
    #   means the *same* family, threshold and seed;
    # * ``scaled_keys`` — the element keys of the scaled set ``S × [k]``:
    #   ``element_key((x, j)) == combine_part_keys((element_key(x), j))``.
    node_sets: Dict[Node, Set[Hashable]] = {}
    families: Dict[int, RepresentativeHashFamily] = {}
    scaled_keys: Dict[Tuple[Node, int], list] = {}

    def _set_of(node: Node) -> Set[Hashable]:
        members = node_sets.get(node)
        if members is None:
            members = set(sets.get(node, ()))
            node_sets[node] = members
        return members

    def _family_for(lam_arg: int) -> RepresentativeHashFamily:
        family = families.get(lam_arg)
        if family is None:
            family = params.family(lam_arg)
            families[lam_arg] = family
        return family

    def _keys_of(node: Node, k: int) -> list:
        keys = scaled_keys.get((node, k))
        if keys is None:
            base = [element_key(x) for x in node_sets[node]]
            if k <= 1:
                keys = base
            else:
                keys = [
                    combine_part_keys((part, j)) for part in base for j in range(k)
                ]
            scaled_keys[(node, k)] = keys
        return keys

    # Round 1: on every edge the endpoint with the smaller identifier draws
    # the shared hash-function index and sends it across (log F bits).
    index_payloads = {}
    per_edge_state: Dict[Edge, Tuple] = {}
    for (u, v) in edges:
        set_u = _set_of(u)
        set_v = _set_of(v)
        if not set_u or not set_v:
            per_edge_state[(u, v)] = None
            continue
        max_size = max(len(set_u), len(set_v))
        k = params.scale_factor(max_size)
        family = _family_for(max_size * k)
        index = family.sample_index(stream.for_edge(u, v, label))
        per_edge_state[(u, v)] = (k, family, index)
        sender, receiver = (u, v) if repr(u) <= repr(v) else (v, u)
        index_payloads[(sender, receiver)] = index_message(
            index, family.size, label=f"{label}:index"
        )
    # The index is O(log F) = O(log n) bits; under a strict (1·log n)-bit
    # budget it may still need a couple of chunked rounds.
    network.exchange_chunked(index_payloads, label=f"{label}:index")

    # Round 2: both endpoints exchange the σ-bit indicator of h(T), where
    # T = S ¬_h S is computed in one counting pass over the precomputed keys.
    indicator_payloads = {}
    per_edge_hashes: Dict[Edge, Tuple[Set[int], Set[int]]] = {}
    for (u, v), state in per_edge_state.items():
        if state is None:
            continue
        k, family, index = state
        sigma = family.sigma
        h = family.member(index)
        hashes_u = h.low_unique_values(_keys_of(u, k), sigma)
        hashes_v = h.low_unique_values(_keys_of(v, k), sigma)
        per_edge_hashes[(u, v)] = (hashes_u, hashes_v)
        indicator_label = f"{label}:indicator"
        indicator_payloads[(u, v)] = _indicator_message(hashes_u, sigma, indicator_label)
        indicator_payloads[(v, u)] = _indicator_message(hashes_v, sigma, indicator_label)
    network.exchange_chunked(indicator_payloads, label=f"{label}:indicator")

    results: Dict[Edge, SimilarityResult] = {}
    for edge, state in per_edge_state.items():
        if state is None:
            results[edge] = _empty_result()
            continue
        k, family, _index = state
        hashes_u, hashes_v = per_edge_hashes[edge]
        results[edge] = _result(k, family, frozenset(hashes_u & hashes_v))
    return results
