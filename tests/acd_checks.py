"""Read a ``repro.graphs.validate_acd`` report (tests only)."""

#: The report's partition and degree checks.  ``sparse_violations`` and
#: ``uneven_violations`` measure how aggressively a randomized
#: decomposition classified borderline nodes, so they are left out.
HARD_CHECKS = ("uncovered", "overlapping", "degree_violations", "membership_violations")


def acd_report_is_clean(report):
    """True when the report has no partition, degree or membership violation."""
    return all(not report[key] for key in HARD_CHECKS)


def friend_labels(network, acd):
    """``acd.friend_pairs`` as a set of label pairs ``(nodes[u], nodes[v])``."""
    nodes = network.nodes
    return {(nodes[u], nodes[v]) for u, v in acd.friend_pairs.tolist()}


def reference_unevenness(degrees, neighbors, v):
    """Definition 5's unevenness of ``v``, summed in its set's order."""
    dv = degrees[v]
    return sum(
        max(0, degrees[u] - dv) / (degrees[u] + 1) for u in neighbors[v]
    )


def reference_classification(network, active, friend_edges, eps):
    """The per-node classification ``compute_acd`` ran before it moved to
    index arrays, from the same buddy edges: neighbourhood sets,
    ``friends_of``, a BFS per component, the sequential post-filter and the
    set-order unevenness sum.  Returns ``(sparse, uneven, cliques,
    clique_of)``.
    """
    from repro.core.params import SPARSITY_EPS

    active_set = set(active)
    neighborhoods = {
        v: {u for u in network.neighbors(v) if u in active_set} for v in active_set
    }
    degrees = {v: len(neighborhoods[v]) for v in active_set}
    friends_of = {v: set() for v in active_set}
    for (u, v) in friend_edges:
        friends_of[u].add(v)
        friends_of[v].add(u)

    dense = {
        v for v in active_set
        if degrees[v] > 0 and len(friends_of[v]) >= (1.0 - 2.0 * eps) * degrees[v]
    }

    clique_of, cliques, visited = {}, {}, set()
    next_id = 0
    for v in sorted(dense, key=repr):
        if v in visited:
            continue
        component = {v}
        frontier = [v]
        while frontier:
            current = frontier.pop()
            for u in friends_of[current]:
                if u in dense and u not in component:
                    component.add(u)
                    frontier.append(u)
        visited |= component
        cliques[next_id] = component
        for u in component:
            clique_of[u] = next_id
        next_id += 1

    for clique_id in list(cliques):
        members = cliques[clique_id]
        changed = True
        while changed and members:
            changed = False
            size = len(members)
            for v in sorted(members, key=repr):
                in_clique = len(neighborhoods[v] & members)
                too_big = degrees[v] > (1.0 + 2 * eps) * size
                too_detached = (1.0 + 2 * eps) * max(in_clique, 1) < size
                if too_big or too_detached:
                    members.discard(v)
                    clique_of.pop(v, None)
                    changed = True
        if len(members) <= 2:
            for v in members:
                clique_of.pop(v, None)
            del cliques[clique_id]
    renumbered = {old: new for new, old in enumerate(cliques)}
    cliques = {renumbered[cid]: members for cid, members in cliques.items()}
    clique_of = {v: renumbered[cid] for v, cid in clique_of.items()}

    uneven, sparse = set(), set()
    for v in active_set:
        if v in clique_of:
            continue
        if (degrees[v] > 0
                and reference_unevenness(degrees, neighborhoods, v) >= SPARSITY_EPS * degrees[v]):
            uneven.add(v)
        else:
            sparse.add(v)
    return sparse, uneven, cliques, clique_of
