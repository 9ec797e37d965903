"""``SynchColorTrial`` (Algorithm 14): leader-coordinated color trials in a clique.

Random color trials inside an almost-clique waste most colors to collisions:
nearly everyone is adjacent to nearly everyone, so two members trying the same
color both fail.  ``SynchColorTrial`` removes the collisions *inside* the
clique: the leader permutes its own palette and hands each uncolored inlier a
*distinct* color; members then try their assigned color with the usual
``TryColor`` (conflicts can now only come from outside the clique or from the
assigned color missing from the member's own palette).

Colors travel through the large-color machinery of Appendix D.3 when the
color space is too big to send verbatim.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Set

from repro.core.leader import LeaderInfo
from repro.core.slack import try_color
from repro.core.state import ColoringState

Node = Hashable
Color = Hashable


def synch_color_trial(
    state: ColoringState,
    leaders: Mapping[int, LeaderInfo],
    exclude: Optional[Set[Node]] = None,
    label: str = "synch-trial",
) -> Set[Node]:
    """Run one synchronized color trial in every almost-clique.

    ``exclude`` removes nodes (the put-aside sets) from the distribution.
    Returns the set of nodes colored by the trial.
    """
    network = state.network
    exclude = exclude or set()

    # Round: each leader deals a distinct palette color to every uncolored,
    # non-put-aside inlier adjacent to it.
    assignments: Dict[Node, Color] = {}
    any_assignment = False
    for cid, info in leaders.items():
        leader = info.leader
        recipients = [
            v for v in sorted(info.inliers, key=repr)
            if not state.is_colored(v) and v not in exclude
            and v in network.neighbors(leader)
        ]
        if not recipients:
            continue
        palette = sorted(state.palettes[leader], key=repr)
        rng = state.rng.for_node(leader, "synch-trial", network.rounds_used)
        rng.shuffle(palette)
        for v, color in zip(recipients, palette):
            assignments[v] = color
            any_assignment = True
    if any_assignment:
        # One membership map for the whole trial.  First match wins
        # (cliques partition the nodes, so it never matters).
        clique_of: Dict[Node, int] = {}
        for cid, info in leaders.items():
            for member in info.members:
                if member not in clique_of:
                    clique_of[member] = cid
        messages = {}
        for v, color in assignments.items():
            if v not in clique_of:
                raise KeyError(f"node {v!r} belongs to no almost-clique")
            leader = leaders[clique_of[v]].leader
            messages[(leader, v)] = state.hasher.encode_for(v, color, label=f"{label}:deal")
        network.exchange(messages, label=f"{label}:deal")
    else:
        network.charge_silent_round(label=f"{label}:deal")

    # The recipients try the dealt color if it belongs to their own palette.
    # In hashed mode the dealt color arrives as a hash value; the recipient
    # tries the unique palette color matching it (Appendix D.3).
    proposals: Dict[Node, Color] = {}
    for v, color in assignments.items():
        if state.is_colored(v):
            continue
        value = state.hasher.value_for(v, color)
        matching = state.hasher.matching_colors(v, state.palettes[v], value)
        if matching:
            proposals[v] = sorted(matching, key=repr)[0]
    return try_color(state, proposals, label=label)
