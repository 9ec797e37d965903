"""Declarative fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is pure configuration — probabilities, schedules and
factors — with no randomness of its own.  The randomness comes in when a
:class:`~repro.faults.transport.FaultyTransport` combines the plan's
canonical encoding with a caller-supplied seed through the repo-wide
:func:`~repro.utils.rng.derive_seed` chain, so a fixed ``(seed, plan)`` pair
perturbs a run identically across transport backends, worker counts and
processes.

The five perturbation axes (all optional; an all-default plan is a no-op and
builds no fault transport):

* ``drop`` — every directed message is lost independently with this
  probability.  Receivers simply see a missing delivery.
* ``corrupt`` — every bit of every delivered payload flips independently
  with this probability (see :mod:`repro.faults.corruption` for how payload
  types map to bits).
* ``crash`` — ``{round: nodes}``: from communication round ``round`` on (as
  counted by the ledger), the listed nodes neither send nor receive.
* ``throttle`` — multiplies the per-edge bandwidth budget (``0.25`` leaves a
  quarter of the usual bits per round), modelling sub-``O(log n)`` CONGEST.
* ``delay`` — ``{(sender, receiver): slots}``: messages on that directed
  edge arrive ``slots`` communication rounds late.  A late payload wider
  than the budget (part of a chunked stream) waits for the next chunked
  round instead of failing a budget-enforced one (see
  ``FaultyTransport._deliver_due``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

from repro.utils.rng import derive_seed

Node = Hashable
DirectedEdge = Tuple[Node, Node]

#: The keys :meth:`FaultPlan.from_params` accepts (the spec-level fault axes).
FAULT_PARAM_KEYS: Tuple[str, ...] = ("corrupt", "crash", "delay", "drop", "throttle")


def _as_probability(name: str, value: object) -> float:
    prob = float(value)
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return prob


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic perturbation recipe for a network run."""

    drop: float = 0.0
    corrupt: float = 0.0
    crash: Mapping[int, Tuple[Node, ...]] = field(default_factory=dict)
    throttle: float = 1.0
    delay: Mapping[DirectedEdge, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "drop", _as_probability("drop", self.drop))
        object.__setattr__(self, "corrupt", _as_probability("corrupt", self.corrupt))
        throttle = float(self.throttle)
        if not 0.0 < throttle <= 1.0:
            raise ValueError(
                f"throttle must be a bandwidth factor in (0, 1], got {self.throttle!r}"
            )
        object.__setattr__(self, "throttle", throttle)
        crash: Dict[int, Tuple[Node, ...]] = {}
        for round_id, nodes in dict(self.crash).items():
            r = int(round_id)
            if r < 0:
                raise ValueError(f"crash round must be >= 0, got {round_id!r}")
            if isinstance(nodes, (str, bytes)) or not hasattr(nodes, "__iter__"):
                raise ValueError(
                    f"crash[{round_id!r}] must be an iterable of nodes, got {nodes!r}"
                )
            crash[r] = tuple(sorted(nodes, key=repr))
        object.__setattr__(self, "crash", crash)
        delay: Dict[DirectedEdge, int] = {}
        for edge, slots in dict(self.delay).items():
            if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
                raise ValueError(
                    f"delay keys must be (sender, receiver) pairs, got {edge!r}"
                )
            slots = int(slots)
            if slots < 0:
                raise ValueError(f"delay[{edge!r}] must be >= 0, got {slots}")
            if slots:
                delay[(edge[0], edge[1])] = slots
        object.__setattr__(self, "delay", delay)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "FaultPlan":
        """Build a plan from a spec-level mapping, rejecting unknown keys."""
        unknown = sorted(set(params) - set(FAULT_PARAM_KEYS))
        if unknown:
            raise ValueError(
                f"unknown fault parameter(s) {unknown} "
                f"(allowed: {', '.join(FAULT_PARAM_KEYS)})"
            )
        kwargs = dict(params)
        if "crash" in kwargs and not isinstance(kwargs["crash"], Mapping):
            raise ValueError(
                f"crash must be a {{round: [nodes]}} mapping, got {kwargs['crash']!r}"
            )
        if "delay" in kwargs and not isinstance(kwargs["delay"], Mapping):
            raise ValueError(
                f"delay must be a {{(sender, receiver): slots}} mapping, "
                f"got {kwargs['delay']!r}"
            )
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: object) -> Optional["FaultPlan"]:
        """Normalise ``None`` / plan / params-mapping to a plan or ``None``.

        A no-op plan collapses to ``None`` so callers can treat "no faults"
        and "an empty plan" identically — both build the bare backend and
        leave the run byte-identical to a fault-free one.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            plan = value
        elif isinstance(value, Mapping):
            plan = cls.from_params(value)
        else:
            raise TypeError(
                f"faults must be a FaultPlan or a parameter mapping, got {value!r}"
            )
        return None if plan.is_noop else plan

    # ----------------------------------------------------------------- queries
    @property
    def is_noop(self) -> bool:
        """True when the plan perturbs nothing (all axes at their defaults)."""
        return (
            self.drop == 0.0
            and self.corrupt == 0.0
            and not self.crash
            and self.throttle == 1.0
            and not self.delay
        )

    def canonical(self) -> Dict[str, Any]:
        """JSON-round-trip-stable description (feeds seeds and artifacts).

        Only non-default axes appear, keys are strings, and collections are
        sorted, so the same plan always encodes to the same bytes whether it
        was built in-process or parsed back out of a committed artifact.
        """
        out: Dict[str, Any] = {}
        if self.drop:
            out["drop"] = self.drop
        if self.corrupt:
            out["corrupt"] = self.corrupt
        if self.crash:
            out["crash"] = {str(r): list(nodes) for r, nodes in sorted(self.crash.items())}
        if self.throttle != 1.0:
            out["throttle"] = self.throttle
        if self.delay:
            # A [sender, receiver, slots] triple list, not an "a->b" joined
            # string: string node labels could contain the separator and
            # collapse distinct plans onto one encoding (hence one seed).
            out["delay"] = [
                [edge[0], edge[1], slots]
                for edge, slots in sorted(self.delay.items(), key=repr)
            ]
        return out

    def canonical_string(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"), default=str)

    def master_seed(self, seed: int) -> int:
        """The fault RNG root for this (seed, plan) pair — the derive_seed chain."""
        return derive_seed("faults", int(seed), self.canonical_string())

    def throttled_bandwidth(self, bandwidth_bits: int) -> int:
        """Apply the throttle factor to a per-edge budget (at least 1 bit)."""
        if self.throttle == 1.0:
            return int(bandwidth_bits)
        return max(1, int(math.floor(bandwidth_bits * self.throttle)))


@dataclass
class FaultStats:
    """Deterministic outcome counters kept by a :class:`FaultyTransport`."""

    delivered_messages: int = 0
    dropped_messages: int = 0
    corrupted_messages: int = 0
    crashed_nodes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "delivered_messages": self.delivered_messages,
            "dropped_messages": self.dropped_messages,
            "corrupted_messages": self.corrupted_messages,
            "crashed_nodes": self.crashed_nodes,
        }
