"""Deterministic post-shattering fallback.

The randomized pipeline colors every node w.h.p. when degrees are large, but
nodes of degree ``o(log n)`` may fail; the shattering framework [BEPS16]
guarantees that the failed nodes form components of poly-logarithmic size,
which are then finished off deterministically.

The paper finishes with a network decomposition plus the deterministic
algorithm of [GK21] (and a color-space reduction for huge color spaces,
Lemma 17).  This reproduction substitutes a simpler deterministic finisher
with the same interface guarantees (documented in DESIGN.md): the uncolored
nodes repeatedly run priority color trials ordered by identifier, so in every
round the locally-highest-priority uncolored node of each component succeeds.
The round cost is bounded by the component size — poly-logarithmic whenever
shattering applies — and is reported separately from the randomized rounds.
Large color spaces still go through the per-node hashing of Appendix D.3, so
no message exceeds the bandwidth.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set

from repro.core.slack import try_color
from repro.core.state import ColoringState

Node = Hashable
Color = Hashable


def deterministic_fallback(
    state: ColoringState,
    nodes: Optional[Iterable[Node]] = None,
    label: str = "fallback",
) -> Set[Node]:
    """Color every remaining uncolored node deterministically.

    Returns the set of nodes colored by the fallback.  Completeness is
    guaranteed: a D1LC palette always retains at least one free color while
    any neighbour is uncolored, and the identifier-based priority makes at
    least one node of every uncolored component succeed per iteration.
    """
    targets = set(nodes) if nodes is not None else state.uncolored_nodes()
    targets = {v for v in targets if not state.is_colored(v)}
    if not targets:
        return set()

    priority = {v: rank for rank, v in enumerate(sorted(targets, key=repr))}
    colored: Set[Node] = set()
    for _ in range(2 * len(targets) + 4):
        remaining = [v for v in targets if not state.is_colored(v)]
        if not remaining:
            break
        proposals: Dict[Node, Color] = {}
        for v in remaining:
            palette = state.palettes[v]
            if not palette:
                continue
            proposals[v] = sorted(palette, key=repr)[0]
        newly = try_color(state, proposals, priority=priority, label=label)
        colored |= newly
        if not newly:
            break
    return colored
