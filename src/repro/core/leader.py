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

import numpy as np

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
    topology = network.topology
    cliques = [(clique_id, set(members)) for clique_id, members in acd.cliques.items()]

    # Per-member numbers, as reductions over the members' CSR rows under one
    # clique-position array (DESIGN "Leader selection on the CSR").
    labels = [v for _, members in cliques for v in members]
    rows = topology.index_array(labels)
    sizes = np.array([len(members) for _, members in cliques], dtype=np.int64)
    own = np.repeat(np.arange(len(cliques), dtype=np.int64), sizes)
    clique = np.full(topology.number_of_nodes, -1, dtype=np.int64)
    clique[rows] = own
    neighbors, row_of = topology.gather_rows(rows)
    inside = clique[neighbors] == own[row_of]
    in_clique = np.bincount(row_of[inside], minlength=rows.size)
    degree = topology.indptr[rows + 1] - topology.indptr[rows]
    external = degree - in_clique
    anti = np.maximum(0, sizes[own] - 1 - in_clique)
    slack = state.chromatic_slack
    score = external + anti + np.array([slack[v] for v in labels])
    score_of = dict(zip(labels, score.tolist()))
    leaders = [min(sorted(members, key=repr), key=score_of.__getitem__)
               for _, members in cliques]

    # Lemma 16 and the outlier ranks read who is adjacent to the leader
    # ("near"): each member's common neighbours with the leader, and each
    # clique's edges among the near members, each counted from both ends
    # (what the near members report to the leader in one more round).
    leader_neighbors, leader_of = topology.gather_rows(topology.index_array(leaders))
    near = np.zeros(topology.number_of_nodes, dtype=bool)
    near[leader_neighbors[clique[leader_neighbors] == leader_of]] = True
    to_near = inside & near[neighbors]
    common = np.bincount(row_of[to_near], minlength=rows.size)
    near_pairs = to_near & near[rows][row_of]
    in_clique_edges = np.bincount(own[row_of[near_pairs]], minlength=len(cliques)) // 2
    max_degree = np.zeros(len(cliques), dtype=np.int64)
    np.maximum.at(max_degree, own, degree)

    external_of = dict(zip(labels, external.tolist()))
    degree_of = dict(zip(labels, degree.tolist()))
    common_of = dict(zip(labels, common.tolist()))
    near_of = dict(zip(labels, near[rows].tolist()))
    results: Dict[int, LeaderInfo] = {}
    for position, ((clique_id, members), leader) in enumerate(zip(cliques, leaders)):
        size = len(members)
        d_leader = max(1, degree_of[leader])
        sparsity_estimate = (
            d_leader * (d_leader - 1) / 2.0 - int(in_clique_edges[position])
        ) / d_leader
        slackability = external_of[leader] + sparsity_estimate + slack[leader]

        # Outliers (Appendix E.2): fewest common neighbours with the leader,
        # largest original degree, and the leader's in-clique non-neighbours.
        # ``others`` is in repr order, so the stable sorts break ties by repr.
        others = sorted(members - {leader}, key=repr)
        by_common = sorted(others, key=common_of.__getitem__)
        take_common = int(max(d_leader, size) * OUTLIER_COMMON_FRACTION)
        outliers: Set[Node] = set(by_common[:take_common])
        by_degree = sorted(others, key=degree_of.__getitem__, reverse=True)
        take_degree = int(size * OUTLIER_DEGREE_FRACTION)
        outliers |= set(by_degree[:take_degree])
        outliers |= {v for v in others if not near_of[v]}

        inliers = set(others) - outliers
        results[clique_id] = LeaderInfo(
            clique_id=clique_id,
            leader=leader,
            inliers=inliers,
            outliers=outliers,
            low_slack=slackability <= ell,
            slackability_estimate=slackability,
            clique_size=size,
            max_degree=int(max_degree[position]),
        )
    network.charge_silent_round(label=f"{label}:sparsity-count")
    return results
