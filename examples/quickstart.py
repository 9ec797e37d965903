#!/usr/bin/env python
"""Quickstart: color a random graph with the CONGEST D1LC pipeline.

Run with::

    python examples/quickstart.py

The script builds a random graph, solves (deg+1)-coloring with the paper's
pipeline under CONGEST bandwidth accounting, validates the result, and prints
the resource usage (rounds, bits, bandwidth ceiling).
"""

from __future__ import annotations

import networkx as nx

from repro import ColoringParameters, solve_d1c
from repro.metrics import format_table


def main() -> None:
    graph = nx.gnp_random_graph(200, 0.08, seed=42)
    print(f"graph: n={graph.number_of_nodes()}, m={graph.number_of_edges()}, "
          f"Δ={max(d for _, d in graph.degree())}")

    result = solve_d1c(graph, params=ColoringParameters.small(seed=7))

    print(f"colors used: {len(set(result.coloring.values()))}")
    rows = [{"metric": key, "value": value} for key, value in result.summary().items()]
    print(format_table(rows, title="\nresource usage"))
    print("\nrounds by phase:")
    for phase, rounds in sorted(result.rounds_by_phase.items()):
        print(f"  {phase:>10}: {rounds}")


if __name__ == "__main__":
    main()
