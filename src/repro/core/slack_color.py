"""``SlackColor`` (Algorithm 15): coloring nodes that have slack linear in their degree.

Nodes that enter SlackColor have slack ``s(v) = Ω(d(v))`` and at least
``s_min`` (a lower bound known to all participants).  The procedure tries an
exponentially growing number of colors per step — ``x_i = 2 ↑↑ i`` through a
tetration schedule, then powers ``ρ^{iκ}`` of ``ρ = s_min^{1/(1+κ)}`` — so that
after ``O(log* s_min)`` iterations every participant has been colored with
probability ``1 − exp(−s_min^{Ω(1)})``.  Each iteration is a constant number
of MultiTrial invocations, i.e. a constant number of CONGEST rounds.

Nodes whose uncolored degree stays too large relative to their slack drop out
("terminate" in the paper's pseudocode); they are returned to the caller and
handled by the shattering fallback, exactly as in the Local algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.core.multitrial import multi_trial
from repro.core.params import SLACK_COLOR_INITIAL_TRIALS
from repro.core.slack import try_random_color
from repro.core.state import ColoringState
from repro.utils.mathx import log_star, tetration

Node = Hashable


@dataclass
class SlackColorOutcome:
    """What happened to the participants of one SlackColor invocation."""

    colored: Set[Node] = field(default_factory=set)
    dropped: Set[Node] = field(default_factory=set)
    iterations: int = 0


def _active(state: ColoringState, nodes: Iterable[Node]) -> List[Node]:
    return [v for v in nodes if not state.is_colored(v)]


def slack_color(
    state: ColoringState,
    nodes: Iterable[Node],
    s_min: int,
    label: str = "slack-color",
) -> SlackColorOutcome:
    """Run Algorithm 15 on ``nodes`` with common slack lower bound ``s_min``."""
    params = state.params
    outcome = SlackColorOutcome()
    participants: Set[Node] = set(_active(state, nodes))
    if not participants:
        return outcome
    s_min = max(2, int(s_min))
    kappa = min(1.0, max(1.0 / s_min, params.slack_color_kappa))

    def register_colored(newly: Set[Node]) -> None:
        outcome.colored |= newly & participants
        participants.difference_update(newly)

    def drop(condition) -> None:
        """Drop the participants whose ``condition(slack, competing)`` holds.

        ``competing`` counts the uncolored neighbours that compete for colors
        *in this invocation*, and ``slack`` is the palette size minus it.
        SlackColor is always run on a set whose complement provides temporary
        slack (uncolored inliers while the outliers color, put-aside nodes
        while the rest of the clique colors, slack-rich sparse nodes while
        ``V_start`` colors).  Only participants try colors concurrently, so
        only they can steal a palette color during the run.
        """
        nodes = list(participants)
        competing = state.network.topology.neighbor_counts(nodes, participants).tolist()
        doomed = {
            v for v, c in zip(nodes, competing)
            if condition(len(state.palettes[v]) - c, c)
        }
        outcome.dropped |= doomed
        participants.difference_update(doomed)

    # Step 1: a constant number of plain random color trials.
    for _ in range(SLACK_COLOR_INITIAL_TRIALS):
        register_colored(try_random_color(state, participants, label=f"{label}:warmup"))
        if not participants:
            return outcome

    # Step 2: nodes without slack at least twice their competing degree leave.
    drop(lambda slack, competing: slack < 2 * competing)
    if not participants:
        return outcome

    # Steps 3-8: tetration schedule x_i = 2 ↑↑ i.
    rho = max(2.0, s_min ** (1.0 / (1.0 + kappa)))
    rho_kappa = max(2.0, rho ** kappa)
    for i in range(log_star(rho) + 1):
        x_i = min(tetration(2, i), 4 * s_min)
        for _ in range(2):
            register_colored(
                multi_trial(state, x_i, participants, label=f"{label}:tetration")
            )
            outcome.iterations += 1
            if not participants:
                return outcome
        drop(lambda slack, competing, x=x_i: competing > slack / min(2.0 * x, rho_kappa))
        if not participants:
            return outcome

    # Steps 9-13: geometric schedule x_i = ρ^{iκ}.
    for i in range(1, int(math.ceil(1.0 / kappa)) + 1):
        x_i = max(1, min(int(rho ** (i * kappa)), 4 * s_min))
        for _ in range(3):
            register_colored(
                multi_trial(state, x_i, participants, label=f"{label}:geometric")
            )
            outcome.iterations += 1
            if not participants:
                return outcome
        limit = min(rho ** ((i + 1) * kappa), rho)
        drop(lambda slack, competing, lim=limit: competing > slack / lim)
        if not participants:
            return outcome

    # Step 14: one final MultiTrial with x = ρ.
    register_colored(
        multi_trial(state, max(1, int(rho)), participants, label=f"{label}:final")
    )
    outcome.iterations += 1
    # Whoever is still uncolored failed the w.h.p. guarantee and is handed to
    # the caller (shattering fallback).
    outcome.dropped |= participants
    return outcome
