"""The per-node leader selection ``select_leaders`` ran before it moved to
CSR reductions (tests only): neighbour-set intersections per member."""

from repro.core.leader import LeaderInfo
from repro.core.params import OUTLIER_COMMON_FRACTION, OUTLIER_DEGREE_FRACTION


def reference_leaders(state, acd):
    """``{clique id: LeaderInfo}`` from ``acd.cliques`` and the state's
    chromatic slack, with no rounds charged."""
    network = state.network
    delta = max(1, state.instance.max_degree())
    ell = state.params.ell(delta)
    results = {}
    for clique_id, members in acd.cliques.items():
        members = set(members)
        size = len(members)
        scores, external, anti = {}, {}, {}
        for v in members:
            neighbors = network.neighbors(v)
            in_clique = neighbors & members
            external[v] = len(neighbors - members)
            anti[v] = max(0, size - 1 - len(in_clique))
            scores[v] = external[v] + anti[v] + state.chromatic_slack[v]
        leader = min(sorted(members, key=repr), key=lambda v: scores[v])

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

        others = sorted(members - {leader}, key=repr)
        common_with_leader = {
            v: len(network.neighbors(v) & leader_neighbors) for v in others
        }
        by_common = sorted(others, key=lambda v: (common_with_leader[v], repr(v)))
        take_common = int(max(d_leader, size) * OUTLIER_COMMON_FRACTION)
        outliers = set(by_common[:take_common])
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
    return results
