"""Mutable execution state of the coloring pipeline, shared by all subroutines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set

import numpy as np

from repro.congest.network import Network
from repro.core.large_colors import ColorHasher
from repro.core.params import ColoringParameters
from repro.core.problem import ColoringInstance
from repro.core.validate import ColoringReport
from repro.utils.rng import RngStream

Node = Hashable
Color = Hashable


class ColoringState:
    """Everything the coloring subroutines read and update.

    The state owns the (mutable) palettes, the partial coloring and the color
    hasher that decides how colors travel over the network; the original
    palettes (needed for chromatic slack) stay in ``instance.palettes``.  All
    communication still goes through :attr:`network`, so the ledger keeps
    measuring rounds and bits.
    """

    def __init__(
        self,
        instance: ColoringInstance,
        network: Network,
        params: Optional[ColoringParameters] = None,
    ):
        self.instance = instance
        self.network = network
        self.params = params or ColoringParameters.small()
        self.rng = RngStream(self.params.seed)
        nodes = instance.nodes
        self.colors: Dict[Node, Optional[Color]] = dict.fromkeys(nodes)
        self.palettes: Dict[Node, Set[Color]] = {
            v: set(instance.palettes[v]) for v in nodes
        }
        self._uncolored: Set[Node] = set(nodes)
        #: ``uncolored_mask[i]``: is ``network.nodes[i]`` still uncolored?
        self.uncolored_mask = np.ones(network.number_of_nodes, dtype=bool)
        self.hasher = ColorHasher(network, instance.color_space, self.params, self.rng)
        self.hasher.setup()
        #: chromatic slack κ_v: neighbours colored outside v's original palette
        #: during GenerateSlack (Definition 7); updated by the slack routines.
        self.chromatic_slack: Dict[Node, int] = dict.fromkeys(nodes, 0)

    # --------------------------------------------------------------- basic views
    def is_colored(self, v: Node) -> bool:
        return self.colors[v] is not None

    def uncolored_nodes(self) -> Set[Node]:
        return set(self._uncolored)

    # ------------------------------------------------------------------ mutation
    def adopt(self, v: Node, color: Color) -> None:
        """Permanently color ``v`` with ``color`` (local bookkeeping only).

        Neighbours learn about the adoption through the broadcast performed by
        the calling subroutine; this method only records the decision.
        """
        if self.colors[v] is not None:
            raise ValueError(f"node {v!r} is already colored")
        if color not in self.palettes[v]:
            raise ValueError(f"color {color!r} is not in the palette of {v!r}")
        self.colors[v] = color
        self._uncolored.discard(v)
        self.uncolored_mask[self.network.topology.node_index[v]] = False

    def remove_from_palette(self, v: Node, encoded_value: Hashable) -> None:
        """Remove every color ``encoded_value`` names from ``v``'s palette."""
        palette = self.palettes[v]
        for color in self.hasher.matching_colors(v, palette, encoded_value):
            palette.discard(color)

    def note_chromatic_slack(self, v: Node, neighbor_color_outside_palette: bool) -> None:
        if neighbor_color_outside_palette:
            self.chromatic_slack[v] += 1


@dataclass
class ColoringResult:
    """Final outcome of a coloring run: the coloring plus resource accounting."""

    coloring: Dict[Node, Optional[Color]]
    report: ColoringReport
    rounds: int
    rounds_by_phase: Dict[str, int]
    total_bits: int
    max_edge_bits: int
    bandwidth_bits: int
    fallback_nodes: int
    parameters: ColoringParameters
    mode: str
    #: Fault-layer counters (delivered/dropped/corrupted messages, crashed
    #: nodes) when the run was perturbed; ``None`` on a fault-free network.
    fault_stats: Optional[Dict[str, int]] = None
    #: Communication-volume breakdown read off the run's ledger: total
    #: message count plus per-phase bit/message totals (the label prefix
    #: before ``":"``).  Deterministic across backends, like the headline
    #: ``total_bits``.
    total_messages: int = 0
    bits_by_phase: Dict[str, int] = field(default_factory=dict)
    messages_by_phase: Dict[str, int] = field(default_factory=dict)

    @property
    def is_valid(self) -> bool:
        return self.report.is_valid

    @property
    def randomized_rounds(self) -> int:
        """Rounds excluding the deterministic post-shattering fallback.

        The paper's round bounds apply to the randomized part; the fallback
        colors the (w.h.p. poly-log sized) leftover components and its cost is
        reported separately.
        """
        fallback = sum(
            count for phase, count in self.rounds_by_phase.items() if phase.startswith("fallback")
        )
        return self.rounds - fallback

    def summary(self) -> Dict[str, object]:
        return {
            "valid": self.is_valid,
            "colored": self.report.colored_nodes,
            "nodes": self.report.total_nodes,
            "rounds": self.rounds,
            "randomized_rounds": self.randomized_rounds,
            "fallback_nodes": self.fallback_nodes,
            "total_bits": self.total_bits,
            "total_messages": self.total_messages,
            "max_edge_bits": self.max_edge_bits,
            "bandwidth_bits": self.bandwidth_bits,
            "mode": self.mode,
        }
