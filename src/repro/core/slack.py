"""Color trials and slack generation (Algorithms 10–12).

``TryColor`` (Alg. 12) is the basic building block: a set of nodes each
propose one color, announce it to their neighbours, keep it if no conflicting
neighbour proposed the same color, and finally announce the adopted colors so
neighbours can prune their palettes.  ``TryRandomColor`` (Alg. 11) proposes a
uniformly random palette color, and ``GenerateSlack`` (Alg. 10) has every node
do so independently with probability ``p_g`` — the step that creates
*permanent slack* (sparse nodes lose fewer palette colors than uncolored
neighbours) and *chromatic slack* (neighbours adopting colors outside one's
palette, Definition 7).

All color traffic goes through the :class:`~repro.core.large_colors.ColorHasher`,
so the same code handles numeric palettes and palettes drawn from a
``exp(n^Θ(1))``-sized space (Appendix D.3).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Set

import numpy as np

from repro.congest.transport import Deliveries
from repro.core.params import SLACK_PROBABILITY
from repro.core.state import ColoringState

Node = Hashable
Color = Hashable


def _send_colors(
    state: ColoringState, colors: Mapping[Node, Color], label: str
) -> Deliveries:
    """One round: every node in ``colors`` tells all its neighbours its color.

    Returns the round's deliveries as columns over the node index.  In
    direct mode the color travels verbatim, the same bits to every
    neighbour, so the round is one
    :meth:`~repro.congest.network.Network.broadcast` with ``bits``.  In
    hashed mode the value addressed to ``u`` is ``h_u(color)``, so the round is an
    exchange with one message per receiver, flattened to the same columns.
    Both charge one message of ``color_bits`` per edge.
    """
    network = state.network
    hasher = state.hasher
    if hasher.mode == "direct":
        return network.broadcast(colors, label=label, bits=hasher.color_bits())
    messages = {}
    for v, color in colors.items():
        for u in network.neighbors(v):
            messages[(v, u)] = hasher.encode_for(u, color, label=label)
    delivered = network.exchange(messages, label=label)
    return Deliveries.from_exchange(delivered, network.topology)


def announce_adoptions(
    state: ColoringState,
    adopted: Mapping[Node, Color],
    label: str = "announce",
    track_chromatic_slack: bool = False,
) -> None:
    """One round: newly colored nodes tell neighbours, who prune their palettes.

    The round is :func:`_send_colors` (one broadcast in direct mode), and
    every delivery to a still-uncolored receiver removes the colors its
    value names: the value itself in direct mode, the colors
    :meth:`~repro.core.large_colors.ColorHasher.matching_colors` finds in
    hashed mode.  When ``track_chromatic_slack`` is set (only during
    GenerateSlack), it also checks whether the announced color lies outside
    the receiver's *original* palette and, if so, increments its chromatic
    slack ``κ_v`` (Definition 7) — the quantity later used for leader
    selection.
    """
    if not adopted:
        state.network.charge_silent_round(label=f"{label}:adopt")
        return
    deliveries = _send_colors(state, adopted, f"{label}:adopt")
    live = state.uncolored_mask[deliveries.receivers]
    receivers = deliveries.receivers[live].tolist()
    slots = deliveries.slots[live].tolist()
    nodes = state.network.nodes
    values = deliveries.values
    palettes = state.palettes
    direct = state.hasher.mode == "direct"
    matching_colors = state.hasher.matching_colors
    original_palettes = state.instance.palettes
    for receiver, slot in zip(receivers, slots):
        v, value = nodes[receiver], values[slot]
        if track_chromatic_slack:
            state.note_chromatic_slack(
                v, not matching_colors(v, original_palettes[v], value)
            )
        if direct:
            palettes[v].discard(value)
        else:
            state.remove_from_palette(v, value)


def try_color(
    state: ColoringState,
    proposals: Mapping[Node, Color],
    priority: Optional[Mapping[Node, int]] = None,
    label: str = "try-color",
    track_chromatic_slack: bool = False,
) -> Set[Node]:
    """Algorithm 12: try one color per proposing node, resolve conflicts, announce.

    Two rounds, each one :func:`_send_colors` call: proposers announce the
    color they try (``{label}:propose``), then adopters announce the color
    they keep (``{label}:adopt``, see :func:`announce_adoptions`).
    ``priority`` optionally ranks proposers (lower rank wins): a proposer only
    treats higher- or equal-priority neighbours as conflicting, which realises
    the paper's ``N^+ / N^-`` refinement while preserving the correctness
    requirement ``u ∈ N^-(v) → v ∈ N^+(u)``.  Returns the set of nodes that
    adopted their proposal.
    """
    proposals = {
        v: color for v, color in proposals.items()
        if not state.is_colored(v) and color in state.palettes[v]
    }
    if not proposals:
        state.network.charge_silent_round(label=f"{label}:propose")
        state.network.charge_silent_round(label=f"{label}:adopt")
        return set()

    # Round 1: everyone announces the color it is trying.
    deliveries = _send_colors(state, proposals, f"{label}:propose")

    # Conflict resolution: keep the color unless a conflicting (higher- or
    # equal-priority) neighbour proposed a color with the same encoding.
    # Values are coded by equality (as dict keys): ``own[i]`` is the code of
    # the value proposer ``i`` would receive for its own color, -2 for a
    # node that does not propose; a received value no proposer's own value
    # equals codes as -1.  A delivery from a sender that does not propose
    # now (a late message under a delay fault) never conflicts.
    rows = state.network.topology.index_array(proposals)
    codes: Dict[Hashable, int] = {}
    own = np.full(state.network.number_of_nodes, -2, dtype=np.int64)
    own[rows] = [
        codes.setdefault(state.hasher.value_for(v, color), len(codes))
        for v, color in proposals.items()
    ]
    received = np.fromiter(
        (codes.get(value, -1) for value in deliveries.values),
        dtype=np.int64, count=len(deliveries.values),
    )[deliveries.slots]
    receivers, senders = deliveries.receivers, deliveries.senders
    conflict = (own[receivers] == received) & (own[senders] >= 0)
    if priority is not None:
        rank = np.zeros(len(own), dtype=np.int64)
        rank[rows] = [priority.get(v, 0) for v in proposals]
        # A strictly lower-priority (higher-rank) sender never blocks.
        conflict &= rank[senders] <= rank[receivers]
    blocked = np.zeros(len(own), dtype=bool)
    blocked[receivers[conflict]] = True

    adopted: Dict[Node, Color] = {}
    for (v, color), is_blocked in zip(proposals.items(), blocked[rows].tolist()):
        if not is_blocked:
            adopted[v] = color
            state.adopt(v, color)

    # Round 2: adopted colors are announced and palettes pruned.
    announce_adoptions(
        state, adopted, label=label, track_chromatic_slack=track_chromatic_slack
    )
    return set(adopted)


def try_random_color(
    state: ColoringState,
    nodes: Iterable[Node],
    label: str = "try-random-color",
    track_chromatic_slack: bool = False,
) -> Set[Node]:
    """Algorithm 11: every listed (uncolored) node tries a random palette color.

    Each mover's color is its ``repr``-sorted palette at the index its
    ``(v, "try-random", round)`` node stream draws, one array pass for all.
    """
    palettes = state.palettes
    movers = [v for v in nodes if not state.is_colored(v) and palettes[v]]
    picks = state.rng.node_randrange(
        movers, [len(palettes[v]) for v in movers], "try-random", state.network.rounds_used
    )
    proposals = {
        v: sorted(palettes[v], key=repr)[i] for v, i in zip(movers, picks.tolist())
    }
    return try_color(
        state,
        proposals,
        label=label,
        track_chromatic_slack=track_chromatic_slack,
    )


def generate_slack(
    state: ColoringState,
    nodes: Iterable[Node],
    label: str = "generate-slack",
) -> Set[Node]:
    """Algorithm 10: each node tries a random color with probability ``p_g``.

    Returns the set of nodes colored by the trial.  Chromatic slack is tracked
    during this (and only this) procedure, as Definition 7 prescribes.
    """
    movers = [v for v in nodes if not state.is_colored(v)]
    coins = state.rng.node_random(movers, "generate-slack").tolist()
    participants = [v for v, coin in zip(movers, coins) if coin < SLACK_PROBABILITY]
    return try_random_color(
        state, participants, label=label, track_chromatic_slack=True
    )
