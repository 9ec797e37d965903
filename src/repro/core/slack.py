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

from repro.core.state import ColoringState

Node = Hashable
Color = Hashable


def announce_adoptions(
    state: ColoringState,
    adopted: Mapping[Node, Color],
    label: str = "announce",
    track_chromatic_slack: bool = False,
) -> None:
    """One round: newly colored nodes tell neighbours, who prune their palettes.

    When ``track_chromatic_slack`` is set (only during GenerateSlack), every
    uncolored receiver also checks whether the announced color lies outside
    its *original* palette and, if so, increments its chromatic slack ``κ_v``
    (Definition 7) — the quantity later used for leader selection.
    """
    if not adopted:
        state.network.charge_silent_round(label=f"{label}:adopt")
        return
    messages = {}
    for v, color in adopted.items():
        # Direct mode: one receiver-independent Message reused for the whole
        # neighbourhood (payload sizing is identity-memoized per round, so the
        # ledger charges are unchanged); hashed mode encodes per receiver.
        shared = state.hasher.encode_shared(color, label=f"{label}:adopt")
        if shared is None:
            for u in state.network.neighbors(v):
                messages[(v, u)] = state.hasher.encode_for(u, color, label=f"{label}:adopt")
        else:
            for u in state.network.neighbors(v):
                messages[(v, u)] = shared
    delivered = state.network.exchange(messages, label=f"{label}:adopt")
    for (sender, receiver), value in delivered.items():
        if state.is_colored(receiver):
            continue
        if track_chromatic_slack:
            in_original = any(
                state.hasher.matches(receiver, c, value)
                for c in state.original_palettes[receiver]
            )
            state.note_chromatic_slack(receiver, not in_original)
        state.remove_from_palette(receiver, value)


def try_color(
    state: ColoringState,
    proposals: Mapping[Node, Color],
    priority: Optional[Mapping[Node, int]] = None,
    label: str = "try-color",
    track_chromatic_slack: bool = False,
) -> Set[Node]:
    """Algorithm 12: try one color per proposing node, resolve conflicts, announce.

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

    # Round 1: everyone announces the color it is trying.  As in
    # announce_adoptions, direct mode shares one Message per proposer.
    messages = {}
    for v, color in proposals.items():
        shared = state.hasher.encode_shared(color, label=f"{label}:propose")
        if shared is None:
            for u in state.network.neighbors(v):
                messages[(v, u)] = state.hasher.encode_for(u, color, label=f"{label}:propose")
        else:
            for u in state.network.neighbors(v):
                messages[(v, u)] = shared
    delivered = state.network.exchange(messages, label=f"{label}:propose")
    received: Dict[Node, Dict[Node, Hashable]] = {v: {} for v in proposals}
    for (sender, receiver), value in delivered.items():
        if receiver in received:
            received[receiver][sender] = value

    # Conflict resolution: keep the color unless a conflicting (higher- or
    # equal-priority) neighbour proposed a color with the same encoding.
    adopted: Dict[Node, Color] = {}
    for v, color in proposals.items():
        own_value = state.hasher.value_for(v, color)
        conflict = False
        for u, value in received[v].items():
            if u not in proposals:
                continue
            if priority is not None and priority.get(u, 0) > priority.get(v, 0):
                continue  # u has strictly lower priority; v wins this conflict
            if value == own_value:
                conflict = True
                break
        if not conflict:
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
    """Algorithm 11: every listed (uncolored) node tries a random palette color."""
    proposals: Dict[Node, Color] = {}
    for v in nodes:
        if state.is_colored(v):
            continue
        palette = state.palettes[v]
        if not palette:
            continue
        rng = state.rng.for_node(v, "try-random", state.network.rounds_used)
        proposals[v] = rng.choice(sorted(palette, key=repr))
    return try_color(
        state,
        proposals,
        label=label,
        track_chromatic_slack=track_chromatic_slack,
    )


def generate_slack(
    state: ColoringState,
    nodes: Optional[Iterable[Node]] = None,
    label: str = "generate-slack",
) -> Set[Node]:
    """Algorithm 10: each node tries a random color with probability ``p_g``.

    Returns the set of nodes colored by the trial.  Chromatic slack is tracked
    during this (and only this) procedure, as Definition 7 prescribes.
    """
    nodes = list(nodes) if nodes is not None else state.nodes
    participants = []
    for v in nodes:
        if state.is_colored(v):
            continue
        rng = state.rng.for_node(v, "generate-slack")
        if rng.random() < state.params.slack_probability:
            participants.append(v)
    return try_random_color(
        state, participants, label=label, track_chromatic_slack=True
    )
