"""Leader selection, inliers and outliers for almost-cliques (Appendix D.1, E.2).

The dense-node phase needs, in each almost-clique ``C``:

* a *leader* whose slackability is (up to constants) as small as the best
  node's — selected as ``argmin_{v∈C} (e_v + a_v + κ_v)`` where ``e_v`` is the
  external degree, ``a_v`` the anti-degree (non-neighbours inside ``C``) and
  ``κ_v`` the chromatic slack accumulated during GenerateSlack (Lemma 12);
* a split of ``C`` into *inliers* (neighbours of the leader sharing many of
  its neighbours and of moderate degree) and *outliers* (everyone else), per
  Appendix E.2;
* an estimate of the clique's slackability — ``e_x + ζ̂_x + κ_x`` where
  ``ζ̂_x`` counts missing edges in the leader's in-clique neighbourhood
  (Lemma 16) — to classify the clique as *low-slack* or *high-slack* against
  the threshold ``ℓ = log^{2.1} Δ``.

The communication involved (announcing clique identifiers, counting common
neighbours with the leader, forwarding ``O(log Δ)``-bit aggregates to the
leader) is a constant number of CONGEST rounds; the simulator charges those
rounds and performs the equivalent aggregation centrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Set

from repro.congest.bandwidth import integer_message
from repro.core.acd import ACDResult
from repro.core.params import OUTLIER_COMMON_FRACTION, OUTLIER_DEGREE_FRACTION
from repro.core.state import ColoringState

Node = Hashable


@dataclass
class LeaderInfo:
    """Per-almost-clique roles and slackability classification."""

    clique_id: int
    leader: Node
    inliers: Set[Node]
    outliers: Set[Node]
    low_slack: bool
    slackability_estimate: float
    clique_size: int
    max_degree: int

    @property
    def members(self) -> Set[Node]:
        return self.inliers | self.outliers | {self.leader}


def select_leaders(
    state: ColoringState,
    acd: ACDResult,
    label: str = "leader",
) -> Dict[int, LeaderInfo]:
    """Choose a leader, inliers and outliers for every almost-clique."""
    network = state.network
    params = state.params
    if not acd.cliques:
        return {}

    # Round: every dense node announces its clique identifier so neighbours
    # can tell in-clique from external edges.  Members of a clique send the
    # same id, so they share one message.
    clique_count = max(2, len(acd.cliques) + 1)
    id_messages = {
        cid: integer_message(cid, clique_count, label=f"{label}:clique-id")
        for cid in acd.cliques
    }
    network.broadcast(
        {v: id_messages[cid] for v, cid in acd.clique_of.items()},
        label=f"{label}:clique-id",
    )
    # Rounds: members forward their (e_v + a_v + κ_v) aggregate towards the
    # clique leader candidate (diameter ≤ 2, so two forwarding rounds).
    network.charge_silent_round(label=f"{label}:aggregate")
    network.charge_silent_round(label=f"{label}:aggregate")

    delta = max(1, state.instance.max_degree())
    ell = params.ell(delta)
    results: Dict[int, LeaderInfo] = {}
    for clique_id, members in acd.cliques.items():
        members = set(members)
        size = len(members)
        scores: Dict[Node, float] = {}
        external: Dict[Node, int] = {}
        anti: Dict[Node, int] = {}
        for v in members:
            neighbors = network.neighbors(v)
            in_clique = neighbors & members
            external[v] = len(neighbors - members)
            anti[v] = max(0, size - 1 - len(in_clique))
            scores[v] = external[v] + anti[v] + state.chromatic_slack[v]
        leader = min(sorted(members, key=repr), key=lambda v: scores[v])

        # Lemma 16: estimate the leader's sparsity by counting the edges inside
        # its in-clique neighbourhood (each such neighbour reports how many of
        # the leader's neighbours it is adjacent to — one more round).
        leader_neighbors = network.neighbors(leader) & members
        in_clique_edges = 0
        for u in leader_neighbors:
            in_clique_edges += len(network.neighbors(u) & leader_neighbors)
        in_clique_edges //= 2
        d_leader = max(1, len(network.neighbors(leader)))
        sparsity_estimate = (
            d_leader * (d_leader - 1) / 2.0 - in_clique_edges
        ) / d_leader
        slackability = external[leader] + sparsity_estimate + state.chromatic_slack[leader]

        # Outliers (Appendix E.2): fewest common neighbours with the leader,
        # largest original degree, and the leader's in-clique non-neighbours.
        others = sorted(members - {leader}, key=repr)
        common_with_leader = {
            v: len(network.neighbors(v) & leader_neighbors) for v in others
        }
        by_common = sorted(others, key=lambda v: (common_with_leader[v], repr(v)))
        take_common = int(max(d_leader, size) * OUTLIER_COMMON_FRACTION)
        outliers: Set[Node] = set(by_common[:take_common])
        by_degree = sorted(others, key=lambda v: (-network.degree(v), repr(v)))
        take_degree = int(size * OUTLIER_DEGREE_FRACTION)
        outliers |= set(by_degree[:take_degree])
        outliers |= {v for v in others if v not in network.neighbors(leader)}

        inliers = set(others) - outliers
        results[clique_id] = LeaderInfo(
            clique_id=clique_id,
            leader=leader,
            inliers=inliers,
            outliers=outliers,
            low_slack=slackability <= ell,
            slackability_estimate=slackability,
            clique_size=size,
            max_degree=max((network.degree(v) for v in members), default=1),
        )
    network.charge_silent_round(label=f"{label}:sparsity-count")
    return results
