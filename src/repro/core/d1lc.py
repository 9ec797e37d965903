"""Top-level (degree+1)-list-coloring driver (Theorem 1, Algorithm 7).

The full algorithm repeatedly runs the per-degree-range pipeline — compute an
almost-clique decomposition of the currently relevant nodes, color the sparse
and uneven ones (Algorithm 8), then the dense ones (Algorithm 9) — and
finishes the (w.h.p. small, shattered) leftovers with a deterministic
fallback.  The paper schedules the pipeline over ``O(log* n)`` degree ranges
``[log^7 x, x]``; with laptop-scale degrees every range collapses to "all
nodes of degree above a small cutoff", so the driver simply iterates the
pipeline on the uncolored nodes above the cutoff until no progress is made
(``MAX_PHASE_ITERATIONS`` bounds the loop), which preserves both the round
structure and the bandwidth accounting.  See DESIGN.md for the substitution
notes.

Public entry points:

* :func:`solve_d1lc` — general list-coloring,
* :func:`solve_d1c` — (deg+1)-coloring (Corollary 1),
* :func:`solve_delta_plus_one` — (Δ+1)-coloring.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional

import networkx as nx

from repro.congest.network import DEFAULT_BACKEND, Network, check_compat_keywords
from repro.core.acd import compute_acd
from repro.core.dense_phase import run_dense_phase
from repro.core.params import MAX_PHASE_ITERATIONS, ColoringParameters
from repro.core.problem import ColoringInstance
from repro.core.shattering import deterministic_fallback
from repro.core.sparse_phase import run_sparse_phase
from repro.core.state import ColoringResult, ColoringState
from repro.core.validate import validate_coloring
from repro.metrics.ledger import bits_by_phase, messages_by_phase, rounds_by_phase

Node = Hashable
Color = Hashable


def _build_result(state: ColoringState, fallback_count: int) -> ColoringResult:
    network = state.network
    report = validate_coloring(state.instance, state.colors)
    return ColoringResult(
        coloring=dict(state.colors),
        report=report,
        rounds=network.ledger.rounds,
        rounds_by_phase=rounds_by_phase(network),
        total_bits=network.ledger.total_bits,
        total_messages=network.ledger.total_messages,
        bits_by_phase=bits_by_phase(network),
        messages_by_phase=messages_by_phase(network),
        max_edge_bits=network.ledger.max_edge_bits,
        bandwidth_bits=network.bandwidth_bits,
        fallback_nodes=fallback_count,
        parameters=state.params,
        mode=network.mode,
        fault_stats=network.fault_stats,
    )


def solve_instance(
    instance: ColoringInstance,
    params: Optional[ColoringParameters] = None,
    mode: str = "congest",
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    faults=None,
    fault_seed: Optional[int] = None,
    tracer=None,
) -> ColoringResult:
    """Run the full D1LC pipeline on a prepared instance.

    ``backend`` selects the transport engine (``"columnar"``, the default,
    or the ``"dict"`` reference); the choice changes performance only,
    never the reported rounds or bits.

    ``faults`` optionally perturbs delivery with a deterministic
    :class:`~repro.faults.plan.FaultPlan` (or a ``{"drop": 0.01}``-style
    mapping); ``fault_seed`` defaults to the solver seed so a fixed
    (seed, plan) pair reproduces byte-identically on every backend.  The
    resulting :class:`ColoringResult` then carries ``fault_stats`` and its
    validity reports how the coloring held up *under* the faults.

    ``tracer`` optionally attaches a :class:`~repro.obs.tracer.RoundTracer`
    (round events, plus the chained digest with ``digest=True``) to the
    run's network.  Tracing is observation-only (no RNG, no state mutation;
    the result is byte-identical either way), and the caller that built the
    tracer owns closing it — ``solve_instance`` never does.
    """
    params = params or ColoringParameters.small()
    if seed is not None:
        params = params.with_seed(seed)
    network = Network(
        instance.graph,
        mode=mode,
        bandwidth_bits=bandwidth_bits,
        backend=backend,
        faults=faults,
        fault_seed=params.seed if fault_seed is None else fault_seed,
        tracer=tracer,
    )
    state = ColoringState(instance, network, params)

    for _iteration in range(MAX_PHASE_ITERATIONS):
        uncolored = list(state.uncolored_nodes())
        degrees = network.topology.neighbor_counts(uncolored, state.uncolored_mask)
        active = {
            v for v, degree in zip(uncolored, degrees.tolist())
            if degree >= params.low_degree_cutoff
        }
        if not active:
            break
        if network.tracer is not None:
            # Observation only: pipeline-level progress for the trace.
            network.tracer.note_nodes(len(active), network.number_of_nodes)
        uncolored_before = len(state.uncolored_nodes())
        acd = compute_acd(network, params, active=active)
        run_sparse_phase(state, acd, label="sparse")
        run_dense_phase(state, acd, label="dense")
        if len(state.uncolored_nodes()) >= uncolored_before:
            break  # no progress; hand the rest to the fallback

    fallback_colored = deterministic_fallback(state, label="fallback")
    return _build_result(state, fallback_count=len(fallback_colored))


def solve_d1lc(
    graph: nx.Graph,
    lists: Optional[Mapping[Node, Iterable[Color]]] = None,
    params: Optional[ColoringParameters] = None,
    mode: str = "congest",
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    ledger: Optional[str] = None,
    faults=None,
    fault_seed: Optional[int] = None,
    shards: int = 1,
    tracer=None,
) -> ColoringResult:
    """Solve (degree+1)-list-coloring on ``graph`` (Theorem 1).

    ``lists`` maps every node to its palette (at least ``d_v + 1`` colors); if
    omitted, the numeric D1C palettes ``{0..d_v}`` are used.  ``mode`` selects
    CONGEST (default) or LOCAL bandwidth accounting, ``backend`` the transport
    engine (``"columnar"`` / ``"dict"``).  ``ledger`` and ``shards`` select
    nothing (see :func:`~repro.congest.network.check_compat_keywords`).
    """
    check_compat_keywords(shards, ledger)
    if lists is None:
        instance = ColoringInstance.d1c(graph)
    else:
        instance = ColoringInstance.d1lc(graph, lists)
    return solve_instance(
        instance, params=params, mode=mode, bandwidth_bits=bandwidth_bits,
        seed=seed, backend=backend, faults=faults,
        fault_seed=fault_seed, tracer=tracer,
    )


def solve_d1c(
    graph: nx.Graph,
    params: Optional[ColoringParameters] = None,
    mode: str = "congest",
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    ledger: Optional[str] = None,
    faults=None,
    fault_seed: Optional[int] = None,
    shards: int = 1,
    tracer=None,
) -> ColoringResult:
    """Solve (deg+1)-coloring (Corollary 1); ``ledger``/``shards`` select nothing."""
    check_compat_keywords(shards, ledger)
    return solve_instance(
        ColoringInstance.d1c(graph), params=params, mode=mode,
        bandwidth_bits=bandwidth_bits, seed=seed, backend=backend,
        faults=faults, fault_seed=fault_seed, tracer=tracer,
    )


def solve_delta_plus_one(
    graph: nx.Graph,
    params: Optional[ColoringParameters] = None,
    mode: str = "congest",
    bandwidth_bits: Optional[int] = None,
    seed: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    faults=None,
    fault_seed: Optional[int] = None,
    tracer=None,
) -> ColoringResult:
    """Solve (Δ+1)-coloring with the same pipeline."""
    return solve_instance(
        ColoringInstance.delta_plus_one(graph), params=params, mode=mode,
        bandwidth_bits=bandwidth_bits, seed=seed, backend=backend,
        faults=faults, fault_seed=fault_seed, tracer=tracer,
    )
