"""Validation of (partial) colorings against a list-coloring instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Mapping, Optional, Tuple

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
) -> ColoringReport:
    """Check a coloring for completeness, properness and palette membership."""
    uncolored: List[Node] = []
    palette_violations: List[Node] = []
    for v in instance.graph.nodes():
        color = coloring.get(v)
        if color is None:
            uncolored.append(v)
            continue
        if color not in instance.palettes[v]:
            palette_violations.append(v)
    conflicts: List[Tuple[Node, Node]] = []
    for u, v in instance.graph.edges():
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cu == cv:
            conflicts.append((u, v))
    colored = instance.graph.number_of_nodes() - len(uncolored)
    return ColoringReport(
        total_nodes=instance.graph.number_of_nodes(),
        colored_nodes=colored,
        uncolored=uncolored,
        conflicts=conflicts,
        palette_violations=palette_violations,
    )
