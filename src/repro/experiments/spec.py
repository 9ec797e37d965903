"""Declarative scenario specifications and deterministic seed derivation.

A :class:`ScenarioSpec` names everything a trial needs — graph family and its
parameters, solver and its parameters, transport backend, ledger kind,
bandwidth/mode, trial count and base seed — as plain data, so scenarios can be
listed, diffed, pickled to worker processes, and re-run bit-identically.

Seed derivation is the determinism backbone of the runner: every trial's
graph seed and solver seed are pure functions of the spec's *workload* fields
(never of execution order, worker count, or scenario name), so

* parallel runs reproduce serial runs byte-for-byte, and
* two scenarios that share a graph family, family parameters and base seed —
  e.g. the D1C pipeline vs the Johansson baseline, or hashed vs naive
  MultiTrial — color the *same* graphs with the *same* solver randomness,
  making head-to-head rows a controlled comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.congest.network import DEFAULT_BACKEND
from repro.congest.transport import TRANSPORT_BACKENDS as BACKENDS  # noqa: F401
from repro.utils.rng import derive_seed  # noqa: F401  (re-exported: the
# seed-derivation chain now lives with the other deterministic-rng utilities
# so the fault layer can share it without depending on the experiments layer)

LEDGERS = ("records", "counters")
MODES = ("congest", "local")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload point: graph family × solver × execution knobs.

    ``backend`` and ``ledger`` are performance knobs only — the transport
    engine guarantees identical accounting across them — so they do not feed
    the seed derivation and do not appear in aggregate artifacts.

    ``faults`` (a ``{"drop": 0.01, "corrupt": 1e-4, ...}`` mapping — see
    :class:`repro.faults.FaultPlan`) perturbs delivery deterministically.
    Like backend/ledger it stays out of the *trial* seed derivation: a
    faulted scenario and its clean twin color the same graphs with the same
    solver randomness, so their rows are a controlled comparison.  The fault
    RNG is instead derived from the trial's solver seed plus the plan's
    canonical encoding, and the plan *does* appear in aggregate artifacts —
    it changes outcomes, not just performance.

    Construction validates all param-mapping keys (family, solver and fault
    params) against the registries: a typo'd key would otherwise silently
    change the seed derivation through ``canonical_params`` and quietly run
    a different workload than the one named.
    """

    name: str
    family: str
    solver: str
    family_params: Mapping[str, object] = field(default_factory=dict)
    solver_params: Mapping[str, object] = field(default_factory=dict)
    backend: str = DEFAULT_BACKEND
    ledger: str = "counters"
    mode: str = "congest"
    bandwidth_bits: object = None  # Optional[int]
    trials: int = 1
    seed: int = 0
    tags: Tuple[str, ...] = ()
    faults: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # Imported lazily — the registry imports this module at load time.
        from repro.experiments.registry import check_spec_params

        check_spec_params(self)

    def describe(self) -> Dict[str, object]:
        """A flat, printable summary row (used by ``repro suite list``)."""
        return {
            "scenario": self.name,
            "family": self.family,
            "solver": self.solver,
            "trials": self.trials,
            "mode": self.mode,
            "bandwidth": self.bandwidth_bits if self.bandwidth_bits is not None else "default",
            "faults": ",".join(f"{k}={v}" for k, v in sorted(
                self.faults.items(), key=lambda item: item[0])) or "-",
            "tags": ",".join(self.tags) or "-",
        }


def canonical_params(params: Mapping[str, object]) -> str:
    """Canonical JSON encoding of a parameter mapping (key-order independent)."""
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"), default=str)


def trial_seeds(spec: ScenarioSpec, trial: int) -> Tuple[int, int]:
    """Derive the ``(graph_seed, solver_seed)`` pair for one trial.

    Both seeds depend only on ``spec.seed`` and the trial index — plus, for
    the graph seed, the graph family and its parameters — so scenarios that
    differ only in solver (pipeline vs baseline) or in performance knobs
    (backend/ledger) see identical inputs and identical solver randomness.
    """
    if trial < 0:
        raise ValueError("trial index must be non-negative")
    base = derive_seed("trial", spec.seed, trial)
    graph_seed = derive_seed("graph", spec.family, canonical_params(spec.family_params), base)
    solver_seed = derive_seed("solver", base)
    return graph_seed, solver_seed
