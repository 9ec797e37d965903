"""Graph-family registry, solver registry, and the named scenario suites.

Three registries turn a :class:`~repro.experiments.spec.ScenarioSpec` into an
executable trial:

* ``GRAPH_FAMILIES`` — ``name -> builder(seed, **family_params)`` returning
  ``(graph, truth)``; ``truth`` carries planted ground-truth structure
  (clique membership, triangle-rich edges) for scoring, or ``None``.
* ``SOLVERS`` — ``name -> solver(spec, graph, truth, seed)`` returning a flat
  metrics dict for one trial.  All coloring solvers share the same metric
  schema so suites can be aggregated and diffed uniformly.  Every solver also
  accepts an optional ``tracer=`` keyword (the trial's one
  :class:`~repro.obs.tracer.RoundTracer`, digesting or not) attached to the
  trial's network — tracing is observation-only, so trial metrics are
  byte-identical either way; the runner owns the tracer's lifecycle.
* ``SUITES`` — the named scenario collections the CLI exposes
  (``smoke``, ``conformance``, ``scale``, ``robustness``, ``massive``).
  ``conformance`` sweeps the paper's quantitative claims over 20 seeds per
  point; its tags (``e05``…``e16``) name the claim each point serves.
  ``scale`` is the large-n workload (n = 2 000 / 10 000 / 50 000); it runs
  single trials so wall-clock and memory stay bounded.  ``robustness``
  sweeps the fault-intensity axis (:mod:`repro.faults`): drop/corruption
  rates, node crashes and bandwidth throttling across d1lc/d1c on three
  families.  ``massive`` is the
  very-large-n workload (n up to 500 000 on ``gnp_fast``/geometric/
  ring-of-cliques).
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.baselines import johansson_coloring, naive_compute_acd, naive_multi_trial
from repro.congest import Network
from repro.core import ColoringInstance, ColoringParameters, solve_d1c, solve_d1lc, solve_delta_plus_one
from repro.core.acd import compute_acd
from repro.core.multitrial import lemma6_bound, multi_trial
from repro.core.state import ColoringResult, ColoringState
from repro.experiments.spec import BACKENDS, MODES, ScenarioSpec
from repro.metrics.ledger import comm_row_metrics, phase_columns
from repro.graphs import (
    degree_plus_one_lists,
    gnp_fast_graph,
    gnp_graph,
    huge_color_space_lists,
    locally_sparse_graph,
    numeric_degree_lists,
    planted_almost_cliques,
    power_law_graph,
    random_geometric_graph,
    random_regular_graph,
    ring_of_cliques,
    shared_pool_lists,
    triangle_rich_graph,
    four_cycle_rich_graph,
)
from repro.sampling import detect_four_cycle_rich_pairs, detect_triangle_rich_edges
from repro.sampling.similarity import SimilarityParameters
from repro.sampling.triangles import true_triangle_count

GraphBuilder = Callable[..., Tuple[nx.Graph, object]]
Solver = Callable[[ScenarioSpec, nx.Graph, object, int], Dict[str, object]]


# --------------------------------------------------------------------------- #
# Graph families
# --------------------------------------------------------------------------- #

def _gnp(seed: int, n: int = 100, p: float = 0.1):
    return gnp_graph(n, p, seed=seed), None


def _gnp_avg_degree(seed: int, n: int = 100, avg_degree: float = 10.0):
    """G(n, p) with p chosen for a target average degree (the E9/E11 sweep)."""
    return gnp_graph(n, min(0.5, avg_degree / n), seed=seed), None


def _gnp_fast(seed: int, n: int = 100, p=None, avg_degree=None):
    """Sparse-time G(n, p) for large n (a *distinct* family from ``gnp``:
    the geometric-skipping sampler draws a different edge stream per seed,
    so the committed ``gnp`` baselines stay byte-identical)."""
    if p is None and avg_degree is None:
        avg_degree = 8.0
    return gnp_fast_graph(n, p=p, avg_degree=avg_degree, seed=seed), None


def _power_law(seed: int, n: int = 100, attachment: int = 3, triangle_prob: float = 0.3):
    return power_law_graph(n, attachment, triangle_prob, seed=seed), None


def _random_regular(seed: int, n: int = 64, degree: int = 6):
    return random_regular_graph(n, degree, seed=seed), None


def _random_geometric(seed: int, n: int = 100, radius: float = 0.15):
    return random_geometric_graph(n, radius, seed=seed), None


def _ring_of_cliques(seed: int, num_cliques: int = 6, clique_size: int = 8):
    # Deterministic family; the seed is accepted for interface uniformity.
    return ring_of_cliques(num_cliques, clique_size), None


def _locally_sparse(seed: int, n: int = 100, degree: int = 8):
    return locally_sparse_graph(n, degree=degree, seed=seed), None


def _planted_almost_cliques(seed: int, **params):
    planted = planted_almost_cliques(seed=seed, **params)
    return planted.graph, planted


def _triangle_rich(seed: int, **params):
    planted = triangle_rich_graph(seed=seed, **params)
    return planted.graph, planted


def _four_cycle_rich(seed: int, **params):
    planted = four_cycle_rich_graph(seed=seed, **params)
    return planted.graph, planted


GRAPH_FAMILIES: Dict[str, GraphBuilder] = {
    "gnp": _gnp,
    "gnp_avg_degree": _gnp_avg_degree,
    "gnp_fast": _gnp_fast,
    "power_law": _power_law,
    "random_regular": _random_regular,
    "random_geometric": _random_geometric,
    "ring_of_cliques": _ring_of_cliques,
    "locally_sparse": _locally_sparse,
    "planted_almost_cliques": _planted_almost_cliques,
    "triangle_rich": _triangle_rich,
    "four_cycle_rich": _four_cycle_rich,
}

#: Accepted ``family_params`` keys per family.  A key outside this set is a
#: typo: it would silently change the graph-seed derivation (every key feeds
#: ``canonical_params``) while the builder ignored or rejected it only at
#: run time — so :func:`check_spec_params` rejects it at spec construction.
FAMILY_PARAM_KEYS: Dict[str, frozenset] = {
    "gnp": frozenset({"n", "p"}),
    "gnp_avg_degree": frozenset({"n", "avg_degree"}),
    "gnp_fast": frozenset({"n", "p", "avg_degree"}),
    "power_law": frozenset({"n", "attachment", "triangle_prob"}),
    "random_regular": frozenset({"n", "degree"}),
    "random_geometric": frozenset({"n", "radius"}),
    "ring_of_cliques": frozenset({"num_cliques", "clique_size"}),
    "locally_sparse": frozenset({"n", "degree"}),
    "planted_almost_cliques": frozenset({
        "num_cliques", "clique_size", "dropout", "num_sparse",
        "sparse_degree", "cross_edges",
    }),
    "triangle_rich": frozenset({
        "n", "background_p", "planted_cliques", "clique_size",
    }),
    "four_cycle_rich": frozenset({
        "n", "background_p", "planted_blocks", "side_size",
    }),
}


# --------------------------------------------------------------------------- #
# Solvers
# --------------------------------------------------------------------------- #

def _coloring_fingerprint(coloring: Mapping) -> str:
    """Stable digest of the full node->color assignment.

    Aggregate counts (rounds, bits, colors used) can survive a bug that
    permutes which node got which color; the fingerprint pins the exact
    assignment, so cross-backend trial rows must match it too.
    """
    items = sorted(coloring.items(), key=repr)
    digest = hashlib.sha256(repr(items).encode("utf-8")).hexdigest()
    return digest[:16]


def _coloring_metrics(result: ColoringResult, graph: nx.Graph) -> Dict[str, object]:
    edges = max(1, graph.number_of_edges())
    nodes = max(1, graph.number_of_nodes())
    metrics = {
        "valid": bool(result.is_valid),
        "rounds": result.rounds,
        "randomized_rounds": result.randomized_rounds,
        "fallback_nodes": result.fallback_nodes,
        "total_bits": result.total_bits,
        "total_messages": result.total_messages,
        "bits_per_edge": round(result.total_bits / edges, 4),
        "bits_per_node": round(result.total_bits / nodes, 4),
        "max_edge_bits": result.max_edge_bits,
        "bandwidth_bits": result.bandwidth_bits,
        "colors_used": len({c for c in result.coloring.values() if c is not None}),
        "coloring_sha": _coloring_fingerprint(result.coloring),
    }
    metrics.update(phase_columns(result.bits_by_phase, result.messages_by_phase))
    # Faulted runs report the perturbation outcome next to the workload
    # metrics; "valid" is then validity *under* the faults.  Fault-free rows
    # keep their historical schema (the committed baselines pin its bytes).
    if result.fault_stats is not None:
        metrics.update(result.fault_stats)
    return metrics


def _fault_kwargs(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    """The ``faults=``/``fault_seed=`` kwargs of one trial (empty when clean).

    The fault RNG is rooted at the trial's *solver seed*: deterministic per
    trial, identical across backends and worker counts, and varying
    trial to trial so a multi-trial scenario samples fresh perturbations.
    """
    if not spec.faults:
        return {}
    return {"faults": spec.faults, "fault_seed": seed}


def _network_fault_stats(network: Network) -> Dict[str, object]:
    """Fault counters of a directly-built network (empty when fault-free)."""
    return dict(network.fault_stats or {})


def _build_lists(spec: ScenarioSpec, graph: nx.Graph, seed: int):
    kind = spec.solver_params.get("lists", "degree_plus_one")
    if kind == "degree_plus_one":
        return degree_plus_one_lists(graph, seed=seed)
    if kind == "numeric":
        return numeric_degree_lists(graph, extra=int(spec.solver_params.get("extra", 0)))
    if kind == "shared_pool":
        return shared_pool_lists(graph, seed=seed)
    if kind == "huge":
        bits = int(spec.solver_params.get("color_bits", 60))
        return huge_color_space_lists(graph, color_space_bits=bits, seed=seed)
    raise ValueError(f"unknown list kind: {kind!r}")


def _solver_params(spec: ScenarioSpec, seed: int) -> ColoringParameters:
    return ColoringParameters.small(
        seed=seed, uniform=bool(spec.solver_params.get("uniform", False))
    )


def _solve_d1c(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
               tracer=None):
    result = solve_d1c(
        graph, params=_solver_params(spec, seed), mode=spec.mode,
        bandwidth_bits=spec.bandwidth_bits, backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    return _coloring_metrics(result, graph)


def _solve_d1lc(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
                tracer=None):
    lists = _build_lists(spec, graph, seed)
    result = solve_d1lc(
        graph, lists, params=_solver_params(spec, seed), mode=spec.mode,
        bandwidth_bits=spec.bandwidth_bits, backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    return _coloring_metrics(result, graph)


def _solve_delta_plus_one(spec: ScenarioSpec, graph: nx.Graph, truth,
                          seed: int, tracer=None):
    result = solve_delta_plus_one(
        graph, params=_solver_params(spec, seed), mode=spec.mode,
        bandwidth_bits=spec.bandwidth_bits, backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    return _coloring_metrics(result, graph)


def _solve_johansson(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
                     tracer=None):
    result = johansson_coloring(
        graph, mode=spec.mode, seed=seed, backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    return _coloring_metrics(result, graph)


def _solve_acd(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
               tracer=None):
    network = Network(
        graph, mode=spec.mode, bandwidth_bits=spec.bandwidth_bits,
        backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    params = ColoringParameters.small(seed=seed)
    variant = spec.solver_params.get("variant", "hashed")
    if variant == "hashed":
        acd = compute_acd(network, params)
    elif variant == "naive":
        acd = naive_compute_acd(network, params)
    else:
        raise ValueError(f"unknown ACD variant: {variant!r}")
    edges = max(1, graph.number_of_edges())
    metrics: Dict[str, object] = {
        "valid": True,
        "rounds": acd.rounds_used,
        "total_bits": network.ledger.total_bits,
        "bits_per_edge": round(network.ledger.total_bits / edges, 4),
        "max_edge_bits": network.ledger.max_edge_bits,
        "bandwidth_bits": network.bandwidth_bits,
    }
    metrics.update(comm_row_metrics(network))
    metrics.update(acd.partition_summary())
    if truth is not None and hasattr(truth, "cliques"):
        metrics["planted_cliques"] = len(truth.cliques)
    metrics.update(_network_fault_stats(network))
    return metrics


def _solve_multitrial(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
                      tracer=None):
    tries = int(spec.solver_params.get("tries", 4))
    variant = spec.solver_params.get("variant", "hashed")
    delta = max((d for _, d in graph.degree()), default=0)
    lists = numeric_degree_lists(
        graph, extra=int(spec.solver_params.get("extra_factor", 3)) * delta
    )
    instance = ColoringInstance.d1lc(graph, lists)
    network = Network(
        graph, mode=spec.mode, bandwidth_bits=spec.bandwidth_bits,
        backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    params = ColoringParameters.small(seed=seed, uniform=variant == "uniform")
    state = ColoringState(instance, network, params)
    bound = lemma6_bound(state, tries)
    if variant in ("hashed", "uniform"):
        colored = multi_trial(state, tries)
    elif variant == "naive":
        colored = naive_multi_trial(state, tries)
    else:
        raise ValueError(f"unknown MultiTrial variant: {variant!r}")
    conflicts = sum(
        1 for u, v in graph.edges()
        if state.colors.get(u) is not None and state.colors.get(u) == state.colors.get(v)
    )
    edges = max(1, graph.number_of_edges())
    metrics = {
        "valid": conflicts == 0,
        "rounds": network.ledger.rounds,
        "colored": len(colored),
        "tries": tries,
        "lemma6_bound": round(bound, 4),
        "total_bits": network.ledger.total_bits,
        "bits_per_edge": round(network.ledger.total_bits / edges, 4),
        "max_edge_bits": network.ledger.max_edge_bits,
        "bandwidth_bits": network.bandwidth_bits,
    }
    metrics.update(comm_row_metrics(network))
    metrics.update(_network_fault_stats(network))
    return metrics


def _solve_triangles(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
                     tracer=None):
    network = Network(
        graph, mode=spec.mode, bandwidth_bits=spec.bandwidth_bits,
        backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    eps = float(spec.solver_params.get("eps", 0.3))
    result = detect_triangle_rich_edges(network, eps=eps, seed=seed)
    metrics: Dict[str, object] = {
        "valid": True,
        "rounds": result.rounds_used,
        "threshold": round(result.threshold, 4),
        "flagged_edges": len(result.flagged),
        "total_bits": network.ledger.total_bits,
        "max_edge_bits": network.ledger.max_edge_bits,
    }
    metrics.update(comm_row_metrics(network))
    # Score against exact triangle counts, with the accuracy the detector's
    # estimates run at:
    # * recall (Theorem 2's guarantee zone): every edge in >= 2*threshold
    #   triangles must be flagged;
    # * Lemma 2: an estimate is off when it misses the exact count by more
    #   than eps*max(d_u, d_v); at most an accuracy.nu share of the edges
    #   may be;
    # * precision: an edge is poor when its exact count is below the
    #   threshold by more than that margin; at most an accuracy.nu share of
    #   the poor edges may be flagged.
    accuracy = SimilarityParameters.practical(eps=eps / 2.0)
    rich = flagged_rich = off = poor = poor_flagged = 0
    for (u, v), estimate in result.estimates.items():
        exact = true_triangle_count(network, u, v)
        margin = accuracy.eps * max(graph.degree(u), graph.degree(v))
        flagged = int(result.is_flagged(u, v))
        off += int(abs(estimate - exact) > margin)
        if exact < result.threshold - margin:
            poor += 1
            poor_flagged += flagged
        if exact >= 2 * result.threshold:
            rich += 1
            flagged_rich += flagged
    metrics["rich_edges"] = rich
    metrics["rich_edges_flagged"] = flagged_rich
    metrics["estimate_off_edges"] = off
    metrics["poor_edges"] = poor
    metrics["poor_edges_flagged"] = poor_flagged
    metrics.update(_network_fault_stats(network))
    return metrics


def _solve_four_cycles(spec: ScenarioSpec, graph: nx.Graph, truth, seed: int,
                       tracer=None):
    network = Network(
        graph, mode=spec.mode, bandwidth_bits=spec.bandwidth_bits,
        backend=spec.backend, tracer=tracer,
        **_fault_kwargs(spec, seed),
    )
    eps = float(spec.solver_params.get("eps", 0.3))
    result = detect_four_cycle_rich_pairs(network, eps=eps, seed=seed)
    metrics = {
        "valid": True,
        "rounds": result.rounds_used,
        "threshold": round(result.threshold, 4),
        "flagged_wedges": len(result.flagged),
        "total_bits": network.ledger.total_bits,
        "max_edge_bits": network.ledger.max_edge_bits,
    }
    metrics.update(comm_row_metrics(network))
    metrics.update(_network_fault_stats(network))
    return metrics


SOLVERS: Dict[str, Solver] = {
    "d1c": _solve_d1c,
    "d1lc": _solve_d1lc,
    "delta_plus_one": _solve_delta_plus_one,
    "johansson": _solve_johansson,
    "acd": _solve_acd,
    "multitrial": _solve_multitrial,
    "triangles": _solve_triangles,
    "four_cycles": _solve_four_cycles,
}

#: Accepted ``solver_params`` keys per solver (see FAMILY_PARAM_KEYS).
SOLVER_PARAM_KEYS: Dict[str, frozenset] = {
    "d1c": frozenset({"uniform"}),
    "d1lc": frozenset({"uniform", "lists", "extra", "color_bits"}),
    "delta_plus_one": frozenset({"uniform"}),
    "johansson": frozenset(),
    "acd": frozenset({"variant"}),
    "multitrial": frozenset({"tries", "variant", "extra_factor"}),
    "triangles": frozenset({"eps"}),
    "four_cycles": frozenset({"eps"}),
}


def check_spec_params(spec: ScenarioSpec) -> None:
    """Reject unknown/typo'd parameter keys (called at spec construction).

    Every ``family_params``/``solver_params`` key feeds the canonical JSON
    that derives trial seeds, so a misspelled key used to silently shift the
    whole scenario onto different graphs while the builder ignored it.
    Unknown *families/solvers* are still :func:`validate_spec`'s job — their
    key sets are unknowable here — and fault params are validated by
    building the :class:`~repro.faults.FaultPlan` they describe.
    """
    family_keys = FAMILY_PARAM_KEYS.get(spec.family)
    if family_keys is not None:
        unknown = sorted(set(spec.family_params) - family_keys)
        if unknown:
            raise ValueError(
                f"{spec.name or '<scenario>'}: unknown family_params key(s) "
                f"{unknown} for family {spec.family!r} "
                f"(allowed: {sorted(family_keys)})"
            )
    solver_keys = SOLVER_PARAM_KEYS.get(spec.solver)
    if solver_keys is not None:
        unknown = sorted(set(spec.solver_params) - solver_keys)
        if unknown:
            raise ValueError(
                f"{spec.name or '<scenario>'}: unknown solver_params key(s) "
                f"{unknown} for solver {spec.solver!r} "
                f"(allowed: {sorted(solver_keys)})"
            )
    if spec.faults:
        from repro.faults import FaultPlan

        try:
            FaultPlan.from_params(spec.faults)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{spec.name or '<scenario>'}: {exc}") from None


# --------------------------------------------------------------------------- #
# Suites
# --------------------------------------------------------------------------- #

def _strict_budget(n: int) -> int:
    """The strict log2(n)-ish budget the bandwidth ablation (E12) runs at."""
    return max(8, int(math.log2(n)) + 1)


def _smoke_suite() -> List[ScenarioSpec]:
    """Small, fast scenarios across every workload class — the CI gate."""
    return [
        ScenarioSpec("gnp-d1c", "gnp", "d1c",
                     family_params={"n": 60, "p": 0.12}, trials=2),
        ScenarioSpec("powerlaw-d1lc", "power_law", "d1lc",
                     family_params={"n": 60, "attachment": 4}, trials=2),
        ScenarioSpec("ring-of-cliques-d1c", "ring_of_cliques", "d1c",
                     family_params={"num_cliques": 6, "clique_size": 7}, trials=2),
        ScenarioSpec("geometric-d1lc", "random_geometric", "d1lc",
                     family_params={"n": 70, "radius": 0.2}, trials=2),
        ScenarioSpec("gnp-johansson", "gnp", "johansson",
                     family_params={"n": 60, "p": 0.12}, trials=2),
        ScenarioSpec("planted-acd", "planted_almost_cliques", "acd",
                     family_params={"num_cliques": 3, "clique_size": 12, "num_sparse": 8},
                     trials=2),
        ScenarioSpec("triangle-detection", "triangle_rich", "triangles",
                     family_params={"n": 70, "planted_cliques": 2, "clique_size": 10},
                     solver_params={"eps": 0.3}, trials=1),
    ]


def _conformance_suite() -> List[ScenarioSpec]:
    """The paper's quantitative claims, each point swept over 20 trial seeds.

    Trial 0 of a point takes the same seeds at any trial count, so it is the
    row the tier-1 E-series tests assert on.  Tags name the experiment:
    ``e11`` pipeline vs Johansson, ``e12`` hashed vs naive at a strict
    budget, ``e05``/``e06`` triangle/4-cycle detection, ``e09``/``e10``/
    ``e16`` rounds against n and degree, ``e07`` MultiTrial, ``e08`` the ACD.
    """
    specs: List[ScenarioSpec] = []

    def point(name: str, family: str, solver: str, **fields) -> None:
        specs.append(ScenarioSpec(name, family, solver, trials=20, **fields))

    for n in (60, 120, 240, 480):
        family_params = {"n": n, "avg_degree": 8.0}
        point(f"d1c-gnp-n{n}", "gnp_avg_degree", "d1c",
              family_params=family_params, seed=n, tags=("e11", "pipeline"))
        point(f"johansson-gnp-n{n}", "gnp_avg_degree", "johansson",
              family_params=family_params, seed=n, tags=("e11", "baseline"))
    point("delta-plus-one-gnp", "gnp", "delta_plus_one",
          family_params={"n": 120, "p": 0.1})
    point("d1lc-huge-colorspace", "gnp", "d1lc",
          family_params={"n": 80, "p": 0.12},
          solver_params={"lists": "huge", "color_bits": 60})
    point("d1lc-shared-pool", "gnp", "d1lc",
          family_params={"n": 80, "p": 0.12},
          solver_params={"lists": "shared_pool"})
    point("d1c-local-mode", "gnp", "d1c",
          family_params={"n": 80, "p": 0.12}, mode="local")
    point("d1c-uniform-impl", "gnp", "d1c",
          family_params={"n": 80, "p": 0.12}, solver_params={"uniform": True})

    for tries in (4, 16, 32):
        for variant in ("hashed", "naive"):
            point(f"multitrial-{variant}-x{tries}", "gnp", "multitrial",
                  family_params={"n": 100, "p": 0.12},
                  solver_params={"tries": tries, "variant": variant},
                  bandwidth_bits=_strict_budget(100), seed=12,
                  tags=("e12", "multitrial", variant))
    for clique_size in (16, 32, 48):
        n = 3 * clique_size + 10
        for variant in ("hashed", "naive"):
            point(f"acd-{variant}-k{clique_size}", "planted_almost_cliques", "acd",
                  family_params={"num_cliques": 3, "clique_size": clique_size,
                                 "num_sparse": 10},
                  solver_params={"variant": variant},
                  bandwidth_bits=_strict_budget(n), seed=clique_size,
                  tags=("e12", "acd", variant))
    for bits in (8, 32, 128):
        point(f"d1c-budget-{bits}b", "gnp", "d1c",
              family_params={"n": 100, "p": 0.1}, bandwidth_bits=bits,
              tags=("regimes",))

    for eps in (0.2, 0.3, 0.5):
        point(f"triangles-eps{eps}", "triangle_rich", "triangles",
              family_params={"n": 100, "planted_cliques": 3, "clique_size": 12},
              solver_params={"eps": eps}, tags=("e05",))
    point("triangles-locally-sparse", "locally_sparse", "triangles",
          family_params={"n": 80, "degree": 6}, solver_params={"eps": 0.3})
    point("four-cycles", "four_cycle_rich", "four_cycles",
          family_params={"n": 80, "planted_blocks": 2, "side_size": 8},
          solver_params={"eps": 0.3}, tags=("e06",))
    for n, cliques in ((120, 3), (240, 4)):
        point(f"e05-triangles-n{n}", "triangle_rich", "triangles",
              family_params={"n": n, "background_p": 0.02,
                             "planted_cliques": cliques, "clique_size": 14},
              solver_params={"eps": 0.3}, seed=n, tags=("e05",))
    for n, side in ((100, 9), (180, 11)):
        point(f"e06-four-cycles-n{n}", "four_cycle_rich", "four_cycles",
              family_params={"n": n, "background_p": 0.02,
                             "planted_blocks": 2, "side_size": side},
              solver_params={"eps": 0.3}, seed=n, tags=("e06",))

    for n in (60, 120, 240):
        point(f"d1lc-gnp-n{n}", "gnp_avg_degree", "d1lc",
              family_params={"n": n, "avg_degree": 10.0}, seed=n,
              tags=("e09", "e16") if n == 240 else ("e09",))
    point("d1lc-powerlaw-high-degree", "power_law", "d1lc",
          family_params={"n": 300, "attachment": 6}, tags=("e10",))
    point("d1lc-random-regular", "random_regular", "d1lc",
          family_params={"n": 128, "degree": 8})
    point("d1c-ring-of-cliques-large", "ring_of_cliques", "d1c",
          family_params={"num_cliques": 12, "clique_size": 8})
    point("d1lc-geometric-large", "random_geometric", "d1lc",
          family_params={"n": 200, "radius": 0.12})
    for p in (0.08, 0.16, 0.32, 0.5):
        point(f"e10-d1c-gnp-p{int(p * 100)}", "gnp", "d1c",
              family_params={"n": 100, "p": p}, seed=int(p * 100),
              tags=("e10",))

    # Lemma 6 (E7).  With 3Δ spare colors ν clamps to 0.5, so the
    # lemma6_bound column is negative: these rows only pin the measured
    # curve.  With 25Δ the bound has content, and tier-1 holds every
    # trial's colored fraction to it.
    for variant in ("hashed", "uniform"):
        infix = "" if variant == "hashed" else "uniform-"
        for tries in (1, 16):
            point(f"e07-multitrial-{infix}x{tries}", "gnp", "multitrial",
                  family_params={"n": 120, "p": 0.1},
                  solver_params={"tries": tries, "variant": variant},
                  seed=7, tags=("e07",))
        point(f"e07-multitrial-{infix}25d-x16", "gnp", "multitrial",
              family_params={"n": 120, "p": 0.1},
              solver_params={"tries": 16, "variant": variant, "extra_factor": 25},
              seed=7, tags=("e07",))
    for cliques, size in ((3, 14), (4, 20)):
        point(f"e08-acd-{cliques}x{size}", "planted_almost_cliques", "acd",
              family_params={"num_cliques": cliques, "clique_size": size,
                             "num_sparse": 2 * cliques},
              seed=size, tags=("e08",))
    return specs


def _scale_suite() -> List[ScenarioSpec]:
    """Large-n wall-clock workload: n = 2 000 / 10 000 / 50 000.

    Four graph families (gnp, power-law, geometric, ring-of-cliques) under
    the D1LC and D1C solvers, one trial each.  The n=2 000 points are the
    CI-sized smoke end of the suite; the n=50 000 points are the headline
    "tens of thousands of nodes on a laptop" data.  Degrees are kept modest
    (≈6–10) so the per-edge similarity sweeps stay linear in m; gnp is only
    used at n=2 000 because ``nx.gnp_random_graph`` itself is O(n²).
    """
    return [
        ScenarioSpec("d1lc-gnp-n2000", "gnp_avg_degree", "d1lc",
                     family_params={"n": 2000, "avg_degree": 8.0},
                     seed=2000, tags=("scale",)),
        ScenarioSpec("d1c-powerlaw-n2000", "power_law", "d1c",
                     family_params={"n": 2000, "attachment": 4},
                     seed=2000, tags=("scale",)),
        ScenarioSpec("d1lc-powerlaw-n10000", "power_law", "d1lc",
                     family_params={"n": 10000, "attachment": 3},
                     seed=10000, tags=("scale",)),
        ScenarioSpec("d1c-geometric-n10000", "random_geometric", "d1c",
                     family_params={"n": 10000, "radius": 0.016},
                     seed=10000, tags=("scale",)),
        ScenarioSpec("d1lc-ring-of-cliques-n50000", "ring_of_cliques", "d1lc",
                     family_params={"num_cliques": 6250, "clique_size": 8},
                     tags=("scale", "n50k")),
        ScenarioSpec("d1c-geometric-n50000", "random_geometric", "d1c",
                     family_params={"n": 50000, "radius": 0.0062},
                     seed=50000, tags=("scale", "n50k")),
    ]


def _robustness_suite() -> List[ScenarioSpec]:
    """Fault-intensity sweeps: the paper's algorithms under a broken network.

    Message-drop and bit-corruption rates × {d1lc, d1c} on three graph
    families, plus crash and sub-``log n`` throttle points, one corrupted
    ring of cliques and one clean reference scenario.  Every node of a ring
    of cliques is dense, so that point runs the dense phase (SynchColorTrial's
    exchange-based deal round) under faults whatever the seeds; on the other
    families the ACD finds an almost-clique only on some seeds.  The committed ``BENCH_robustness.json`` baseline
    pins every outcome — validity under faults *and* the exact
    delivered/dropped/corrupted/crash counters — because the fault layer is
    deterministic per (seed, plan).
    """
    specs: List[ScenarioSpec] = [
        ScenarioSpec("gnp-d1c-clean", "gnp", "d1c",
                     family_params={"n": 60, "p": 0.12}, trials=2,
                     tags=("robustness", "clean")),
    ]
    drop_points = [
        ("gnp-d1c", "gnp", "d1c", {"n": 60, "p": 0.12}),
        ("powerlaw-d1lc", "power_law", "d1lc", {"n": 60, "attachment": 4}),
        ("geometric-d1lc", "random_geometric", "d1lc", {"n": 70, "radius": 0.2}),
    ]
    for drop in (0.02, 0.1):
        for prefix, family, solver, family_params in drop_points:
            specs.append(ScenarioSpec(
                f"{prefix}-drop{int(drop * 100)}", family, solver,
                family_params=family_params, faults={"drop": drop}, trials=2,
                tags=("robustness", "drop"),
            ))
    corrupt_points = [
        ("gnp-d1lc", "gnp", "d1lc", {"n": 60, "p": 0.12}),
        ("powerlaw-d1c", "power_law", "d1c", {"n": 60, "attachment": 4}),
    ]
    for corrupt, label in ((1e-3, "1e3"), (1e-2, "1e2")):
        for prefix, family, solver, family_params in corrupt_points:
            specs.append(ScenarioSpec(
                f"{prefix}-corrupt{label}", family, solver,
                family_params=family_params, faults={"corrupt": corrupt},
                trials=2, tags=("robustness", "corrupt"),
            ))
    specs.extend([
        ScenarioSpec("gnp-d1c-crash", "gnp", "d1c",
                     family_params={"n": 60, "p": 0.12},
                     faults={"crash": {2: (0, 1, 2), 6: (3, 4)}}, trials=2,
                     tags=("robustness", "crash")),
        ScenarioSpec("geometric-d1c-throttle", "random_geometric", "d1c",
                     family_params={"n": 70, "radius": 0.2},
                     faults={"throttle": 0.25}, trials=2,
                     tags=("robustness", "throttle")),
        ScenarioSpec("ring-of-cliques-d1c-corrupt1e3", "ring_of_cliques", "d1c",
                     family_params={"num_cliques": 6, "clique_size": 7},
                     faults={"corrupt": 1e-3}, trials=2,
                     tags=("robustness", "corrupt", "dense")),
    ])
    return specs


def _massive_suite() -> List[ScenarioSpec]:
    """Very-large-n workload: n = 50 000 / 200 000 / 500 000.

    Three scalable families (``gnp_fast`` — the sparse-time G(n, p) sampler,
    geometric, ring-of-cliques) under the D1LC and D1C solvers, as single
    trials.  CI runs the
    ``massive-gnp-n50000-d1c`` point of the ``massive-smoke`` tier
    (n = 50 000).  Geometric radii target average degree ≈ 8
    (``r = sqrt(8 / (π n))``) so the sweeps stay linear in m.
    """
    return [
        ScenarioSpec("massive-ring-n50000-d1lc", "ring_of_cliques", "d1lc",
                     family_params={"num_cliques": 6250, "clique_size": 8},
                     tags=("massive", "massive-smoke")),
        ScenarioSpec("massive-gnp-n50000-d1c", "gnp_fast", "d1c",
                     family_params={"n": 50000, "avg_degree": 8.0},
                     seed=50000, tags=("massive", "massive-smoke")),
        ScenarioSpec("massive-gnp-n200000-d1lc", "gnp_fast", "d1lc",
                     family_params={"n": 200000, "avg_degree": 8.0},
                     seed=200000, tags=("massive", "n200k")),
        ScenarioSpec("massive-geometric-n200000-d1c", "random_geometric", "d1c",
                     family_params={"n": 200000, "radius": 0.00357},
                     seed=200000, tags=("massive", "n200k")),
        ScenarioSpec("massive-ring-n200000-d1c", "ring_of_cliques", "d1c",
                     family_params={"num_cliques": 25000, "clique_size": 8},
                     tags=("massive", "n200k")),
        ScenarioSpec("massive-gnp-n500000-d1c", "gnp_fast", "d1c",
                     family_params={"n": 500000, "avg_degree": 8.0},
                     seed=500000, tags=("massive", "n500k")),
        ScenarioSpec("massive-geometric-n500000-d1lc", "random_geometric", "d1lc",
                     family_params={"n": 500000, "radius": 0.00226},
                     seed=500000, tags=("massive", "n500k")),
        ScenarioSpec("massive-ring-n500000-d1lc", "ring_of_cliques", "d1lc",
                     family_params={"num_cliques": 62500, "clique_size": 8},
                     tags=("massive", "n500k")),
    ]


_SUITE_BUILDERS: Dict[str, Callable[[], List[ScenarioSpec]]] = {
    "smoke": _smoke_suite,
    "conformance": _conformance_suite,
    "scale": _scale_suite,
    "robustness": _robustness_suite,
    "massive": _massive_suite,
}


def suite_names() -> List[str]:
    return sorted(_SUITE_BUILDERS)


def get_suite(name: str) -> List[ScenarioSpec]:
    """Resolve a suite name to its validated scenario list."""
    try:
        builder = _SUITE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown suite: {name!r} (available: {', '.join(suite_names())})"
        ) from None
    specs = builder()
    seen = set()
    for spec in specs:
        if spec.name in seen:
            raise ValueError(f"suite {name!r} has duplicate scenario {spec.name!r}")
        seen.add(spec.name)
        validate_spec(spec)
    return specs


def validate_spec(spec: ScenarioSpec) -> None:
    """Reject a spec that references unknown registries or invalid knobs."""
    if not spec.name:
        raise ValueError("scenario name must be non-empty")
    if spec.family not in GRAPH_FAMILIES:
        raise ValueError(
            f"{spec.name}: unknown graph family {spec.family!r} "
            f"(available: {', '.join(sorted(GRAPH_FAMILIES))})"
        )
    if spec.solver not in SOLVERS:
        raise ValueError(
            f"{spec.name}: unknown solver {spec.solver!r} "
            f"(available: {', '.join(sorted(SOLVERS))})"
        )
    if spec.backend not in BACKENDS:
        raise ValueError(f"{spec.name}: unknown backend {spec.backend!r}")
    if spec.mode not in MODES:
        raise ValueError(f"{spec.name}: unknown mode {spec.mode!r}")
    if spec.trials < 1:
        raise ValueError(f"{spec.name}: trials must be >= 1")
    if spec.bandwidth_bits is not None and int(spec.bandwidth_bits) < 1:
        raise ValueError(f"{spec.name}: bandwidth_bits must be >= 1 or None")
    # Param-key validation normally runs at construction; re-check here so
    # specs deserialized or built around __post_init__ cannot slip through.
    check_spec_params(spec)
