"""Put-aside sets: temporary slack for very dense almost-cliques (Alg. 13, App. D.2).

Low-slack almost-cliques (slackability below ``ℓ = log^{2.1} Δ``) contain
nodes with almost no slack of their own.  The algorithm *puts aside* a small
set ``P_C`` of inliers per such clique — they stay uncolored while the rest of
the clique colors itself, which hands every remaining member ``Ω(ℓ)``
temporary slack — and colors ``P_C`` at the very end by centralising the
relevant palettes at the leader (through in-clique relays, Appendix D.2).

Construction (Algorithm 13): every inlier joins a sample ``S_C`` independently
with probability ``p_s = ℓ²/(48·Δ_C)`` and stays in ``P_C`` only if none of its
neighbours in *other* cliques were sampled too (so put-aside sets of different
cliques are mutually non-adjacent and can all wait until the end).  The leader
then truncates ``P_C`` to ``Θ(ℓ)`` elements (Appendix D.2), which is all the
slack the rest of the algorithm needs.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping, Set

from repro.congest.message import Message
from repro.core.leader import LeaderInfo
from repro.core.slack import announce_adoptions
from repro.core.state import ColoringState

Node = Hashable
Color = Hashable


def compute_put_aside(
    state: ColoringState,
    leaders: Mapping[int, LeaderInfo],
    label: str = "put-aside",
) -> Dict[int, Set[Node]]:
    """Sample the put-aside sets of all low-slack almost-cliques (Algorithm 13)."""
    network = state.network
    params = state.params
    delta = max(1, state.instance.max_degree())
    ell = params.ell(delta)

    low_slack = {cid: info for cid, info in leaders.items() if info.low_slack}
    if not low_slack:
        network.charge_silent_round(label=f"{label}:sample")
        return {}

    clique_of: Dict[Node, int] = {}
    for cid, info in leaders.items():
        for v in info.members:
            clique_of[v] = cid

    # Step 1: independent sampling of inliers, announced to all neighbours.
    movers, probabilities = [], []
    for info in low_slack.values():
        probability = params.putaside_probability(ell, info.max_degree)
        for v in info.inliers:
            if not state.is_colored(v):
                movers.append(v)
                probabilities.append(probability)
    coins = state.rng.node_random(movers, "put-aside").tolist()
    sampled: Set[Node] = {
        v for v, coin, probability in zip(movers, coins, probabilities) if coin < probability
    }
    network.broadcast(
        {v: Message(content=True, bits=1, label=f"{label}:sample") for v in sampled},
        label=f"{label}:sample",
    )

    # Step 2: drop sampled nodes with a sampled neighbour in another clique.
    put_aside: Dict[int, Set[Node]] = {cid: set() for cid in low_slack}
    for v in sampled:
        cid = clique_of[v]
        conflict = any(
            u in sampled and clique_of.get(u) != cid for u in network.neighbors(v)
        )
        if not conflict:
            put_aside[cid].add(v)

    # Step 3 (Appendix D.2): the leader truncates P_C to Θ(ℓ) members.
    cap = max(1, int(math.ceil(2 * ell)))
    for cid in put_aside:
        members = sorted(put_aside[cid], key=repr)
        put_aside[cid] = set(members[:cap])
    network.charge_silent_round(label=f"{label}:truncate")
    return {cid: nodes for cid, nodes in put_aside.items() if nodes}


def color_put_aside(
    state: ColoringState,
    leaders: Mapping[int, LeaderInfo],
    put_aside: Mapping[int, Set[Node]],
    label: str = "put-aside-color",
) -> Set[Node]:
    """Color the put-aside sets at the end of the dense phase (Appendix D.2).

    Each member of ``P_C`` forwards ``|N(v) ∩ P_C| + 1`` palette colors and its
    adjacency within ``P_C`` to the leader through disjoint relay groups of
    in-clique neighbours; the leader then colors ``P_C`` locally and sends the
    colors back.  The simulator performs the equivalent centralised assignment
    and charges two silent ``{label}:collect`` rounds in its place, which
    keeps the paper's O(1) round count but charges the relayed traffic no
    bits (ROADMAP item 1 is to charge it).  The adoptions are then
    announced as one color round.
    """
    network = state.network
    colored: Set[Node] = set()
    any_work = False
    adopted: Dict[Node, Color] = {}
    for cid, members in put_aside.items():
        members = {v for v in members if not state.is_colored(v)}
        if not members:
            continue
        any_work = True
        # Relay traffic: each member ships |N(v) ∩ P_C| + 1 colors plus its
        # in-P_C adjacency to the leader.  Charge the equivalent rounds.
        used: Dict[Node, Color] = {}
        for v in sorted(members, key=repr):
            forbidden = {
                used[u] for u in network.neighbors(v) if u in used
            }
            available = sorted(
                (c for c in state.palettes[v] if c not in forbidden), key=repr
            )
            if not available:
                continue  # handled by the fallback; cannot happen with d+1 lists
            choice = available[0]
            used[v] = choice
            adopted[v] = choice
            state.adopt(v, choice)
            colored.add(v)
    if any_work:
        # palette upload to the leader (relayed, chunked) + color download.
        network.charge_silent_round(label=f"{label}:collect")
        network.charge_silent_round(label=f"{label}:collect")
    announce_adoptions(state, adopted, label=label)
    return colored
