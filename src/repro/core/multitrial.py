"""``MultiTrial`` — trying many colors in one round (Section 4.1, Algorithm 4).

A node with enough slack can color itself w.h.p. by trying ``x`` colors at
once, but naively describing ``x`` arbitrary colors takes ``x·log|C|`` bits.
MultiTrial compresses the exchange with representative hash functions:

1. each participating node ``v`` sets ``λ_v = 6·|Ψ_v|``, picks a random member
   ``h_v`` of the shared representative family for range ``λ_v`` and
   broadcasts ``(λ_v, index)`` — ``O(log n)`` bits;
2. ``v`` picks its ``x`` trial colors uniformly from ``Ψ_v ¬_{h_v} Ψ_v`` (its
   palette colors with a unique low hash value);
3. for every participating neighbour ``u``, ``v`` sends a ``σ_{λ_u}``-bit
   indicator of which low hash values (under ``u``'s function) its trial
   colors occupy;
4. ``v`` adopts any trial color whose own hash value was not flagged by any
   neighbour, and announces the adoption.

Lemma 6: when ``x <= |Ψ_v| / (2|N(v)|)``, a single MultiTrial colors ``v``
with probability at least ``1 − (7/8)^x − 2ν``, even conditioned on the other
nodes' choices.

The uniform implementation (Algorithm 5) replaces the representative family
with an explicit pairwise-independent function chosen to have few collisions
in ``Ψ_v`` plus a representative multiset of hash values to observe; it is
selected with ``ColoringParameters.uniform``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Union

from repro.congest.bandwidth import bitstring_message
from repro.congest.message import Message
from repro.core.slack import announce_adoptions
from repro.core.params import MULTITRIAL_ALPHA, MULTITRIAL_BETA, MULTITRIAL_LAMBDA_FACTOR
from repro.core.state import ColoringState
from repro.hashing.multiset import RepresentativeMultisetFamily
from repro.hashing.pairwise import PairwiseHashFamily
from repro.hashing.representative import RepresentativeHashFamily
from repro.hashing.setops import unique_part

Node = Hashable
Color = Hashable


def _universe_size(state: ColoringState) -> int:
    space = state.instance.color_space
    if space.size is not None:
        return max(2, space.size)
    return 2 ** min(space.bits, 64)


def _representative_family(state: ColoringState, lam: int) -> RepresentativeHashFamily:
    """The shared family ``H_λ`` all nodes agree on for range ``λ``."""
    params = state.params
    n = max(2, state.network.number_of_nodes)
    nu = params.multitrial_nu(lam, n)
    return RepresentativeHashFamily(
        universe_label="multitrial",
        universe_size=_universe_size(state),
        lam=lam,
        alpha=MULTITRIAL_ALPHA,
        beta=MULTITRIAL_BETA,
        nu=nu,
        seed=params.seed,
    )


def _pairwise_family(state: ColoringState, lam: int) -> PairwiseHashFamily:
    return PairwiseHashFamily(
        universe_label="multitrial-uniform",
        universe_size=_universe_size(state),
        lam=lam,
        seed=state.params.seed,
    )


def lemma6_tries(
    state: ColoringState,
    tries: Union[int, Mapping[Node, int]],
    participants: Optional[Iterable[Node]] = None,
) -> Dict[Node, int]:
    """Each participant's ``x_v``: ``tries`` clamped to Lemma 6's hypothesis.

    Participants are the given (default: all uncolored) nodes that are
    uncolored, have a nonempty palette and at least one try.  Lemma 6
    requires ``x_v <= |Ψ_v| / (2|N(v)|)`` where ``N(v)`` is the set of
    neighbours that may try colors concurrently, i.e. the other
    participants, so each ``x_v`` is clamped to that ceiling (and to at
    least 1).  Keys keep the participants' order.
    """
    if participants is None:
        participants = state.uncolored_nodes()
    participants = [
        v for v in participants if not state.is_colored(v) and state.palettes[v]
    ]
    tries_by_node = _normalize_tries(tries, participants)
    participants = [v for v in participants if tries_by_node.get(v, 0) >= 1]
    competing = state.network.topology.neighbor_counts(participants, participants)
    return {
        v: min(tries_by_node[v], max(1, len(state.palettes[v]) // max(1, 2 * c)))
        for v, c in zip(participants, competing.tolist())
    }


def lemma6_bound(state: ColoringState, tries: int) -> float:
    """Lemma 6's success bound ``1 − (7/8)^{x_v} − 2ν_v`` for the worst participant.

    ``x_v`` is the clamped number of tries :func:`multi_trial` runs at
    ``v`` (:func:`lemma6_tries`), and ``ν_v = ColoringParameters.
    multitrial_nu(λ_v, n)`` grows as ``λ_v`` (so ``v``'s palette) shrinks.
    ``ν`` clamps to 0.5, so with few spare colors the bound is negative.
    With no participant it is ``1 − (7/8)^x``.
    """
    params = state.params
    n = max(2, state.network.number_of_nodes)

    def bound(v: Node, x: int) -> float:
        lam = max(2, MULTITRIAL_LAMBDA_FACTOR * len(state.palettes[v]))
        return 1.0 - (7 / 8) ** x - 2.0 * params.multitrial_nu(lam, n)

    return min(
        (bound(v, x) for v, x in lemma6_tries(state, tries).items()),
        default=1.0 - (7 / 8) ** tries,
    )


def _normalize_tries(
    tries: Union[int, Mapping[Node, int]], participants: Iterable[Node]
) -> Dict[Node, int]:
    if isinstance(tries, int):
        return {v: tries for v in participants}
    return {v: int(tries.get(v, 0)) for v in participants}


def multi_trial(
    state: ColoringState,
    tries: Union[int, Mapping[Node, int]],
    participants: Optional[Iterable[Node]] = None,
    label: str = "multitrial",
) -> Set[Node]:
    """Run one MultiTrial step for ``participants`` and return the newly colored nodes.

    ``tries`` is either a single ``x`` for everyone or a per-node mapping.
    Each node's ``x`` is clamped to ``|Ψ_v| / (2·(competing degree))`` — the
    hypothesis of Lemma 6, see :func:`lemma6_tries` — so that callers can
    pass the schedule of Algorithm 15 verbatim.
    """
    tries_by_node = lemma6_tries(state, tries, participants)
    participants = list(tries_by_node)
    if not participants:
        for suffix in ("setup", "indicator", "adopt"):
            state.network.charge_silent_round(label=f"{label}:{suffix}")
        return set()

    if state.params.uniform:
        return _multi_trial_uniform(state, tries_by_node, participants, label)
    return _multi_trial_representative(state, tries_by_node, participants, label)


# --------------------------------------------------------------------------- #
# Representative-hash-function implementation (Algorithm 4)
# --------------------------------------------------------------------------- #

def _multi_trial_representative(
    state: ColoringState,
    tries_by_node: Dict[Node, int],
    participants: List[Node],
    label: str,
) -> Set[Node]:
    params = state.params
    n = max(2, state.network.number_of_nodes)
    participating = set(participants)

    # Step 1: pick λ_v, a hash function index, and broadcast both.
    lam_of: Dict[Node, int] = {}
    hash_of: Dict[Node, object] = {}
    sigma_of: Dict[Node, int] = {}
    setup_payload: Dict[Node, Message] = {}
    for v in participants:
        lam = max(2, MULTITRIAL_LAMBDA_FACTOR * len(state.palettes[v]))
        family = _representative_family(state, lam)
        index = family.sample_index(state.rng.for_node(v, "multitrial", state.network.rounds_used))
        lam_of[v] = lam
        hash_of[v] = family.member(index)
        sigma_of[v] = params.multitrial_sigma(lam, tries_by_node[v], n)
        lam_bits = max(1, (MULTITRIAL_LAMBDA_FACTOR * (state.instance.max_degree() + 1)).bit_length())
        setup_payload[v] = Message(
            content=(lam, index),
            bits=lam_bits + family.index_bits,
            label=f"{label}:setup",
        )
    state.network.broadcast_chunked(setup_payload, label=f"{label}:setup")

    # Step 2: each node samples its trial colors from Ψ_v ¬_{h_v} Ψ_v.
    trial_colors: Dict[Node, List[Color]] = {}
    for v in participants:
        palette = state.palettes[v]
        candidates = sorted(
            unique_part(hash_of[v], palette, palette, sigma_of[v]), key=repr
        )
        rng = state.rng.for_node(v, "multitrial-colors", state.network.rounds_used)
        x = min(tries_by_node[v], len(candidates))
        trial_colors[v] = rng.sample(candidates, x) if x > 0 else []

    # Step 3: σ-bit indicators between participating neighbours.
    indicator_messages = {}
    for v in participants:
        for u in state.network.neighbors(v):
            if u not in participating:
                continue
            sigma_u = sigma_of[u]
            hit = {hash_of[u](psi) for psi in trial_colors[v]}
            bits = [1 if value in hit else 0 for value in range(1, sigma_u + 1)]
            indicator_messages[(v, u)] = bitstring_message(bits, label=f"{label}:indicator")
    delivered = state.network.exchange_chunked(indicator_messages, label=f"{label}:indicator")

    blocked: Dict[Node, Set[int]] = {v: set() for v in participants}
    for (sender, receiver), payload in delivered.items():
        values = {i + 1 for i, bit in enumerate(payload) if bit}
        blocked[receiver] |= values

    # Step 4: adopt any unblocked trial color, then announce adoptions.
    adopted: Dict[Node, Color] = {}
    for v in participants:
        for psi in trial_colors[v]:
            if hash_of[v](psi) not in blocked[v]:
                adopted[v] = psi
                state.adopt(v, psi)
                break
    announce_adoptions(state, adopted, label=label)
    return set(adopted)


# --------------------------------------------------------------------------- #
# Uniform implementation (Algorithm 5): pairwise hashing + averaging samplers
# --------------------------------------------------------------------------- #

def _multi_trial_uniform(
    state: ColoringState,
    tries_by_node: Dict[Node, int],
    participants: List[Node],
    label: str,
) -> Set[Node]:
    params = state.params
    bandwidth = state.network.bandwidth_bits
    participating = set(participants)

    lam_of: Dict[Node, int] = {}
    hash_of: Dict[Node, object] = {}
    sample_of: Dict[Node, List[int]] = {}
    setup_payload: Dict[Node, Message] = {}
    for v in participants:
        palette = state.palettes[v]
        lam = max(2, MULTITRIAL_LAMBDA_FACTOR * len(palette))
        family = _pairwise_family(state, lam)
        rng = state.rng.for_node(v, "multitrial-uniform", state.network.rounds_used)
        # Step 1: a hash function with at most λ_v/3 collisions inside Ψ_v.
        hash_index = family.find_low_collision_index(palette, max(1, lam // 3), rng)
        h = family.member(hash_index)
        # Step 2: a representative multiset of σ_v observation points in [λ_v].
        sigma = min(max(bandwidth, params.multitrial_sigma_floor), lam)
        sigma = max(sigma, params.multitrial_sigma_per_try * tries_by_node[v])
        sigma = min(sigma, lam)
        multisets = RepresentativeMultisetFamily(
            domain_size=lam, count=sigma, seed=params.seed
        )
        multiset_index = multisets.sample_index(rng)
        sample = multisets.member(multiset_index).points()
        lam_of[v], hash_of[v], sample_of[v] = lam, h, sample
        lam_bits = max(1, (MULTITRIAL_LAMBDA_FACTOR * (state.instance.max_degree() + 1)).bit_length())
        setup_payload[v] = Message(
            content=(lam, hash_index, multiset_index),
            bits=lam_bits + family.index_bits + multisets.index_bits,
            label=f"{label}:setup",
        )
    state.network.broadcast_chunked(setup_payload, label=f"{label}:setup")

    # Step 3: trial colors are palette colors whose hash lies in the sampled multiset.
    trial_colors: Dict[Node, List[Color]] = {}
    for v in participants:
        sample_set = set(sample_of[v])
        candidates = sorted(
            (c for c in state.palettes[v] if hash_of[v](c) in sample_set), key=repr
        )
        rng = state.rng.for_node(v, "multitrial-uniform-colors", state.network.rounds_used)
        x = min(tries_by_node[v], len(candidates))
        trial_colors[v] = rng.sample(candidates, x) if x > 0 else []

    # Step 4: indicators indexed by the *positions* of the receiver's multiset.
    indicator_messages = {}
    for v in participants:
        for u in state.network.neighbors(v):
            if u not in participating:
                continue
            tried_hashes = {hash_of[u](psi) for psi in trial_colors[v]}
            bits = [1 if point in tried_hashes else 0 for point in sample_of[u]]
            indicator_messages[(v, u)] = bitstring_message(bits, label=f"{label}:indicator")
    delivered = state.network.exchange_chunked(indicator_messages, label=f"{label}:indicator")

    blocked_positions: Dict[Node, Set[int]] = {v: set() for v in participants}
    for (sender, receiver), payload in delivered.items():
        positions = {i for i, bit in enumerate(payload) if bit}
        blocked_positions[receiver] |= positions

    adopted: Dict[Node, Color] = {}
    for v in participants:
        sample = sample_of[v]
        for psi in trial_colors[v]:
            value = hash_of[v](psi)
            positions = {i for i, point in enumerate(sample) if point == value}
            if positions & blocked_positions[v]:
                continue
            adopted[v] = psi
            state.adopt(v, psi)
            break
    announce_adoptions(state, adopted, label=label)
    return set(adopted)
