"""Fault injection: deterministic, seeded network perturbations.

The subsystem has three small parts, layered strictly below the experiment
orchestration and above the transport engine:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (drop / corrupt / crash /
  throttle / delay as pure data) and the :class:`FaultStats` counters;
* :mod:`repro.faults.corruption` — the deterministic bit-flip operators;
* :mod:`repro.faults.transport` — :class:`FaultyTransport`, the ``dict``
  oracle with every round perturbed by a plan.

Entry points: pass ``faults=`` (a plan or a params mapping) to
:class:`~repro.congest.network.Network`, the ``solve_*`` drivers, a
:class:`~repro.experiments.spec.ScenarioSpec`, or ``repro suite run
--faults drop=0.01,corrupt=1e-4``.  A ``None``/empty plan is a true no-op:
no fault transport is built and the run is byte-identical to a fault-free
one.  See DESIGN.md ("Fault model & determinism invariants").
"""

from repro.faults.corruption import corrupt_payload
from repro.faults.plan import FAULT_PARAM_KEYS, FaultPlan, FaultStats
from repro.faults.transport import FaultyTransport

__all__ = [
    "FAULT_PARAM_KEYS",
    "FaultPlan",
    "FaultStats",
    "FaultyTransport",
    "corrupt_payload",
]
