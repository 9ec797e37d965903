"""Coloring the sparse and uneven nodes (Algorithm 8, Appendix D).

Sparse nodes have many missing edges in their neighbourhood, so after
``GenerateSlack`` (every node trying a random color with constant probability)
they end up with *permanent slack*: pairs of neighbours that adopted the same
color, or neighbours that adopted colors outside the node's palette, each free
up a palette color relative to the uncolored degree.  Uneven nodes get slack
from their higher-degree neighbours' larger palettes.  Nodes with slack linear
in their degree are colored by ``SlackColor`` in ``O(log* n)`` MultiTrial
steps.

Following Appendix D, the set ``V_start`` — sparse nodes that did *not*
receive permanent slack but are adjacent to many nodes that did — is
identified *after* slack generation, by looking at the observed slack: those
nodes are colored first, while their slack-rich neighbours are still
uncolored and therefore provide temporary slack.  Nodes that neither received
slack nor have slack-rich neighbours join the ``BAD`` set, which the
shattering framework leaves to the deterministic fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Set

from repro.congest.message import Message
from repro.core.acd import ACDResult
from repro.core.params import START_SLACK_FRACTION
from repro.core.slack import generate_slack
from repro.core.slack_color import slack_color
from repro.core.state import ColoringState

Node = Hashable


@dataclass
class SparsePhaseOutcome:
    """Bookkeeping of one sparse/uneven phase."""

    colored: Set[Node] = field(default_factory=set)
    start_set: Set[Node] = field(default_factory=set)
    bad_set: Set[Node] = field(default_factory=set)
    leftover: Set[Node] = field(default_factory=set)


def run_sparse_phase(
    state: ColoringState,
    acd: ACDResult,
    label: str = "sparse",
) -> SparsePhaseOutcome:
    """Color the sparse and uneven nodes of the current ACD (Algorithm 8)."""
    outcome = SparsePhaseOutcome()
    targets = {
        v for v in (acd.sparse_nodes | acd.uneven_nodes) if not state.is_colored(v)
    }
    if not targets:
        return outcome

    # Step 2 (of Alg. 8): slack generation restricted to sparse ∪ uneven nodes.
    colored_now = generate_slack(state, targets, label=f"{label}:slack")
    outcome.colored |= colored_now
    targets -= colored_now

    # Step 1 (performed after slack generation, as Appendix D prescribes):
    # classify the remaining nodes by the slack they actually received.
    # One round: every node announces whether it considers itself slack-rich.
    # Slack is available colors minus uncolored neighbours.
    topology = state.network.topology
    order = list(targets)
    induced_degree: Dict[Node, int] = dict(
        zip(order, topology.neighbor_counts(order, targets).tolist())
    )
    uncolored_degree = topology.neighbor_counts(order, state.uncolored_mask).tolist()
    slack_rich: Set[Node] = set()
    for v, degree in zip(order, uncolored_degree):
        threshold = START_SLACK_FRACTION * max(1, induced_degree[v])
        if len(state.palettes[v]) - degree - 1 >= threshold:
            slack_rich.add(v)
    state.network.broadcast(
        {v: Message(content=True, bits=1, label=f"{label}:slack-rich") for v in slack_rich},
        label=f"{label}:slack-rich",
    )
    others = [v for v in order if v not in slack_rich]
    for v, rich_neighbors in zip(others, topology.neighbor_counts(others, slack_rich).tolist()):
        threshold = START_SLACK_FRACTION * max(1, induced_degree[v])
        if rich_neighbors >= threshold:
            outcome.start_set.add(v)
        else:
            outcome.bad_set.add(v)

    # Step 3: color V_start first — its slack is temporary (uncolored
    # slack-rich neighbours), so it must go before them.
    s_min = max(4, int(START_SLACK_FRACTION
                       * max(1, min((induced_degree[v] for v in targets), default=1))))
    if outcome.start_set:
        start_outcome = slack_color(
            state, outcome.start_set, s_min=s_min, label=f"{label}:start"
        )
        outcome.colored |= start_outcome.colored
        outcome.leftover |= start_outcome.dropped

    # Step 4: color the remaining sparse and uneven nodes.  BAD nodes (the
    # shattering candidates) are included: they are not *guaranteed* slack, but
    # the warm-up random trials of SlackColor color most of them anyway, and
    # whoever fails simply drops out to the deterministic fallback as the
    # shattering framework prescribes.
    rest = {v for v in targets - outcome.start_set if not state.is_colored(v)}
    if rest:
        rest_outcome = slack_color(state, rest, s_min=s_min, label=f"{label}:rest")
        outcome.colored |= rest_outcome.colored
        outcome.leftover |= rest_outcome.dropped

    outcome.leftover |= {v for v in outcome.bad_set if not state.is_colored(v)}
    outcome.leftover = {v for v in outcome.leftover if not state.is_colored(v)}
    return outcome
