"""Validation of (partial) colorings against a list-coloring instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.congest.topology import Topology
from repro.core.problem import ColoringInstance

Node = Hashable
Color = Hashable


@dataclass
class ColoringReport:
    """Outcome of validating a (possibly partial) coloring."""

    total_nodes: int
    colored_nodes: int
    uncolored: List[Node] = field(default_factory=list)
    conflicts: List[Tuple[Node, Node]] = field(default_factory=list)
    palette_violations: List[Node] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return not self.uncolored

    @property
    def is_proper(self) -> bool:
        """No monochromatic edge and no palette violation (may be partial)."""
        return not self.conflicts and not self.palette_violations

    @property
    def is_valid(self) -> bool:
        """Complete and proper — what Theorem 1 promises w.h.p."""
        return self.is_complete and self.is_proper


def validate_coloring(
    instance: ColoringInstance,
    coloring: Mapping[Node, Optional[Color]],
    topology: Optional[Topology] = None,
) -> ColoringReport:
    """Check a coloring for completeness, properness and palette membership.

    ``topology`` is the instance graph's; one is built when it is omitted,
    and the report is the same either way.  Each color is coded to an int
    by equality (``None`` to -1), and the codes are compared once over the
    CSR upper triangle.  Only when that finds a monochromatic edge are the
    graph's edges walked, so the conflict list has the edge walk's order
    and its ``==`` rule.
    """
    graph = instance.graph
    if topology is None:
        topology = Topology(graph)
    nodes = topology.nodes
    colors = list(map(coloring.get, nodes))
    palettes = instance.palettes
    uncolored = [v for v, color in zip(nodes, colors) if color is None]
    palette_violations = [
        v for v, color in zip(nodes, colors) if color is not None and color not in palettes[v]
    ]

    code_of = {color: code for code, color in enumerate(dict.fromkeys(colors))}
    code_of[None] = -1
    codes = np.fromiter(map(code_of.__getitem__, colors), dtype=np.int64, count=len(nodes))
    indptr, indices = topology.indptr, topology.indices
    rows = np.repeat(np.arange(len(nodes), dtype=np.int64), np.diff(indptr))
    upper = rows < indices
    ends = codes[rows[upper]]
    conflicts: List[Tuple[Node, Node]] = []
    if ((ends >= 0) & (ends == codes[indices[upper]])).any():
        for u, v in graph.edges():
            cu, cv = coloring.get(u), coloring.get(v)
            if cu is not None and cu == cv:
                conflicts.append((u, v))
    return ColoringReport(
        total_nodes=len(nodes),
        colored_nodes=len(nodes) - len(uncolored),
        uncolored=uncolored,
        conflicts=conflicts,
        palette_violations=palette_violations,
    )
