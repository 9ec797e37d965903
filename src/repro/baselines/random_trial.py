"""The classical random-color-trial coloring baseline (Johansson / Luby style).

Every uncolored node repeatedly proposes a uniformly random color from its
current palette and keeps it if no neighbour proposed the same color; adopted
colors are removed from the neighbours' palettes.  With ``deg+1`` lists every
node succeeds with constant probability per iteration, so the algorithm
finishes in ``O(log n)`` rounds w.h.p. — the baseline bound the paper's
``O(log^5 log n)`` result improves on.  It sends one color per round per edge,
so it runs in CONGEST whenever single colors fit in a message (and through the
large-color hashing otherwise).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional

import networkx as nx

from repro.congest.network import DEFAULT_BACKEND, Network
from repro.core.d1lc import _build_result
from repro.core.params import ColoringParameters
from repro.core.problem import ColoringInstance
from repro.core.slack import try_random_color
from repro.core.state import ColoringResult, ColoringState

Node = Hashable
Color = Hashable


def johansson_coloring(
    graph: nx.Graph,
    lists: Optional[Mapping[Node, Iterable[Color]]] = None,
    mode: str = "congest",
    seed: int = 0,
    params: Optional[ColoringParameters] = None,
    backend: str = DEFAULT_BACKEND,
    faults=None,
    fault_seed: Optional[int] = None,
    tracer=None,
) -> ColoringResult:
    """Color ``graph`` by iterated random color trials.

    Returns the same :class:`~repro.core.state.ColoringResult` structure as the
    main solver, so benchmarks can compare rounds and bits directly.
    ``faults``/``fault_seed`` perturb delivery exactly as in
    :func:`~repro.core.d1lc.solve_instance`, so robustness head-to-heads
    stress the baseline and the pipeline identically.
    """
    if lists is None:
        instance = ColoringInstance.d1c(graph)
    else:
        instance = ColoringInstance.d1lc(graph, lists)
    params = (params or ColoringParameters.small()).with_seed(seed)
    network = Network(graph, mode=mode, backend=backend, faults=faults,
                      fault_seed=seed if fault_seed is None else fault_seed,
                      tracer=tracer)
    state = ColoringState(instance, network, params)

    for _ in range(8 * max(4, graph.number_of_nodes().bit_length() ** 2)):
        uncolored = state.uncolored_nodes()
        if not uncolored:
            break
        if network.tracer is not None:
            network.tracer.note_nodes(len(uncolored), network.number_of_nodes)
        try_random_color(state, uncolored, label="johansson")
    return _build_result(state, fallback_count=0)
