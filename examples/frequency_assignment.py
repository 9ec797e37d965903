#!/usr/bin/env python
"""List-coloring with a huge color space: frequency assignment (Appendix D.3).

Scenario: every radio tower may only use frequencies from its own licensed
list, and frequencies are identified by 400-bit descriptors — far more than a
CONGEST message can carry.  The paper's answer (Appendix D.3) is to never send
a frequency verbatim: each node announces a universal hash function once, and
neighbours afterwards refer to frequencies by their hash value.

The script builds such an instance, solves it, and shows that no message ever
exceeded the O(log n) bandwidth even though the colors themselves are 400 bits.
"""

from __future__ import annotations

from repro import ColoringParameters, solve_d1lc
from repro.graphs import gnp_graph, huge_color_space_lists
from repro.metrics import format_table


def main() -> None:
    graph = gnp_graph(150, 0.07, seed=9)
    lists = huge_color_space_lists(graph, color_space_bits=400, seed=10)
    sample_color = next(iter(next(iter(lists.values()))))
    print(f"towers: {graph.number_of_nodes()}, interference edges: {graph.number_of_edges()}")
    print(f"one frequency descriptor needs {sample_color.bit_length()} bits "
          "(far above the per-message budget)")

    result = solve_d1lc(graph, lists, params=ColoringParameters.small(seed=21))

    rows = [
        {"metric": "assignment valid", "value": result.is_valid},
        {"metric": "bandwidth budget (bits)", "value": result.bandwidth_bits},
        {"metric": "largest single message (bits)", "value": result.max_edge_bits},
        {"metric": "CONGEST rounds", "value": result.rounds},
    ]
    print(format_table(rows, title="\nfrequency assignment"))
    assert result.max_edge_bits <= result.bandwidth_bits, (
        "a message exceeded the CONGEST budget — the large-color machinery failed"
    )
    # Hashed mode costs one round in which every node announces its hash
    # function; a color space that fits the budget would skip it.
    assert "color-hash" in result.rounds_by_phase, "colors were sent verbatim"
    print("\nevery frequency was communicated through per-node universal hashing; "
          "no message exceeded the bandwidth budget.")


if __name__ == "__main__":
    main()
