#!/usr/bin/env python
"""Sparsity estimation and almost-clique decomposition on a planted instance.

The script demonstrates the two structural primitives the coloring pipeline is
built on:

1. ``EstimateSparsity`` — every node estimates how many edges are missing from
   its neighbourhood using O(1) rounds of hashed samples (Lemmas 4–5);
2. ``compute_acd`` — the O(1)-round almost-clique decomposition (Section 4.2),
   compared against the planted ground truth and validated against the four
   properties of Definition 6.
"""

from __future__ import annotations

from repro.congest import Network
from repro.core import ColoringParameters
from repro.core.acd import compute_acd
from repro.core.params import SPARSITY_EPS
from repro.graphs import exact_local_sparsity, planted_almost_cliques, validate_acd
from repro.metrics import format_table
from repro.sampling import estimate_local_sparsity


def main() -> None:
    planted = planted_almost_cliques(
        num_cliques=4, clique_size=18, num_sparse=25, sparse_degree=5, seed=12
    )
    graph = planted.graph
    network = Network(graph)
    params = ColoringParameters.small(seed=13)

    # --- sparsity estimation -------------------------------------------------
    estimates = estimate_local_sparsity(network, eps=0.4, seed=14)
    rows = []
    clique_node = next(iter(planted.cliques[0]))
    sparse_node = next(iter(planted.sparse_nodes))
    for label, node in (("clique member", clique_node), ("background node", sparse_node)):
        rows.append({
            "node": f"{label} ({node})",
            "degree": graph.degree(node),
            "true local sparsity": round(exact_local_sparsity(graph, node), 2),
            "estimated": round(estimates[node], 2),
            "reliable": estimates.reliable[node],
        })
    print(format_table(rows, title="local sparsity estimation (Lemma 5)"))
    print(f"rounds used: {estimates.rounds_used}\n")

    # --- almost-clique decomposition -----------------------------------------
    acd = compute_acd(network, params)
    print(format_table([acd.partition_summary()], title="almost-clique decomposition"))
    recovered = 0
    for members in acd.cliques.values():
        overlap = max(len(members & truth) / len(truth) for truth in planted.cliques)
        recovered += overlap >= 0.8
    print(f"planted cliques recovered: {recovered}/{len(planted.cliques)}")

    report = validate_acd(
        graph,
        sparse_nodes=acd.sparse_nodes,
        uneven_nodes=acd.uneven_nodes,
        almost_cliques=list(acd.cliques.values()),
        eps_sparse=SPARSITY_EPS,
        eps_clique=2 * params.acd_eps,
    )
    violations = {k: len(v) for k, v in report.items()}
    print(format_table([violations], title="\nDefinition 6 violation counts (0 everywhere = valid)"))
    print(f"ACD rounds used: {acd.rounds_used}")


if __name__ == "__main__":
    main()
