"""The ``dict`` oracle with delivery perturbed deterministically.

:class:`FaultyTransport` subclasses
:class:`~repro.congest.transport.DictTransport` and applies a
:class:`~repro.faults.plan.FaultPlan` to every communication primitive.
``make_transport`` builds it for a non-trivial plan whatever the backend
name, so a faulted run takes the oracle's code on either backend.  Design
invariants (enforced by the fault-layer test suite):

* **Backend-independent bytes.**  Every fault decision is a pure function of
  ``(master_seed, round_id, sender, receiver)`` via ``mix64`` over stable
  element keys — never of dict iteration order.  Every round is
  materialised as one per-edge message mapping, filtered, and delivered by
  the oracle's ``exchange`` (or ``exchange_chunked``), so a fixed (seed,
  plan) pair yields byte-identical ledgers, inboxes and stats whichever
  backend was named.
* **Failures are absences, not exceptions.**  A dropped, crashed-away or
  still-delayed message is simply missing from the result mapping / inbox;
  programs never see a fault-layer exception.  Protocol violations (illegal
  edges, oversized payloads under the throttled budget) still raise exactly
  as they would on a fault-free transport.
* **Round numbering is the ledger's.**  The crash schedule and delay slots
  count communication rounds as recorded by the ledger, which is the one
  clock all backends agree on.

The no-fault path never reaches this module: ``make_transport`` only builds
this transport when the plan is non-trivial, so fault-free runs stay
byte-identical to the committed baselines by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

from repro.congest.bandwidth import payload_bits
from repro.congest.errors import BandwidthExceeded
from repro.congest.topology import Topology
from repro.congest.transport import DictTransport
from repro.faults.corruption import corrupt_payload, to_unit
from repro.faults.plan import FaultPlan, FaultStats
from repro.hashing.keys import element_key, mix64
from repro.metrics.ledger import Ledger

Node = Hashable
DirectedEdge = Tuple[Node, Node]

_DROP_SALT = 0xD809
_CORRUPT_SALT = 0xC0BB


class FaultyTransport(DictTransport):
    """The ``dict`` oracle with ``plan`` perturbing every round it carries."""

    name = "faults"

    def __init__(self, topology: Topology, mode: str, bandwidth_bits: int,
                 ledger: Ledger, plan: FaultPlan, seed: int = 0):
        if plan.is_noop:
            raise ValueError(
                "a no-op FaultPlan builds no FaultyTransport (make_transport "
                "returns the bare backend for it)"
            )
        super().__init__(topology, mode, bandwidth_bits, ledger)
        self.fault_plan = plan
        self.fault_seed = int(seed)
        self.fault_stats = FaultStats()
        self._master = plan.master_seed(seed)
        self._crash_schedule: List[Tuple[int, Tuple[Node, ...]]] = sorted(
            plan.crash.items()
        )
        self._crash_pos = 0
        self._crashed: set = set()
        #: In-flight delayed messages as (due_round, edge, payload), FIFO.
        self._pending: List[Tuple[int, DirectedEdge, Any]] = []

    # ------------------------------------------------------------ fault engine
    def _begin_round(self) -> int:
        """Advance the crash schedule to the round about to execute."""
        round_id = self.ledger.rounds
        schedule = self._crash_schedule
        pos = self._crash_pos
        while pos < len(schedule) and schedule[pos][0] <= round_id:
            self._crashed.update(schedule[pos][1])
            pos += 1
        if pos != self._crash_pos:
            self._crash_pos = pos
            self.fault_stats.crashed_nodes = len(self._crashed)
        return round_id

    def _check_removed(self, sender: Node, receiver: Node, payload: Any,
                       label: str, validate: bool, enforce_budget: bool) -> None:
        """Re-create the clean transport's checks for a message we remove.

        A dropped or crash-suppressed message must still raise for an
        illegal edge and (outside the chunked primitives, which legitimately
        stream oversized payloads) for a budget violation — protocol errors
        never become silently survivable just because the fault seed
        happened to remove the offending message.
        """
        if validate:
            self._validate_edge(sender, receiver)
        if enforce_budget:
            bits = payload_bits(payload)
            if bits > self.bandwidth_bits:
                raise BandwidthExceeded((sender, receiver), bits,
                                        self.bandwidth_bits, label)

    def _filter(
        self,
        messages: Mapping[DirectedEdge, Any],
        round_id: int,
        label: str,
        validate: bool,
        enforce_budget: bool,
    ) -> Dict[DirectedEdge, Any]:
        """Apply crash/drop/corrupt/delay to one round's messages.

        Only the messages the fault layer *removes* are checked here
        (edge legality when ``validate`` is set, budget when
        ``enforce_budget`` is set) — survivors get the oracle's own
        delivery checks, so the common no-fault-hit message is validated
        exactly once and protocol violations raise exactly as they would on
        a clean transport.
        """
        plan = self.fault_plan
        master = self._master
        crashed = self._crashed
        stats = self.fault_stats
        drop = plan.drop
        corrupt = plan.corrupt
        delay = plan.delay
        surviving: Dict[DirectedEdge, Any] = {}
        for edge, payload in messages.items():
            sender, receiver = edge
            if crashed and (sender in crashed or receiver in crashed):
                self._check_removed(sender, receiver, payload, label,
                                    validate, enforce_budget)
                stats.dropped_messages += 1
                continue
            if drop or corrupt:
                sender_key = element_key(sender)
                receiver_key = element_key(receiver)
            if drop:
                draw = mix64(master, round_id, sender_key, receiver_key,
                             _DROP_SALT)
                if to_unit(draw) < drop:
                    self._check_removed(sender, receiver, payload, label,
                                        validate, enforce_budget)
                    stats.dropped_messages += 1
                    continue
            if corrupt:
                edge_seed = mix64(master, round_id, sender_key, receiver_key,
                                  _CORRUPT_SALT)
                payload, flips = corrupt_payload(payload, corrupt, edge_seed)
                if flips:
                    stats.corrupted_messages += 1
            slots = delay.get(edge, 0) if delay else 0
            if slots:
                # A delayed message is checked at send time, like the clean
                # transport would; delivery re-checks are harmless.
                self._check_removed(sender, receiver, payload, label,
                                    validate, enforce_budget)
                self._pending.append((round_id + slots, edge, payload))
            else:
                surviving[edge] = payload
        if self._pending:
            self._deliver_due(surviving, round_id, enforce_budget)
        return surviving

    def _deliver_due(self, surviving: Dict[DirectedEdge, Any], round_id: int,
                     enforce_budget: bool) -> None:
        """Merge delayed messages whose due round has arrived (FIFO order).

        A late message was checked when it was sent.  One larger than this
        round's budget (the payload of a chunked stream) waits for the next
        round that streams, a chunked one, instead of failing this round's
        budget check: faults surface as absences, never as exceptions.
        """
        crashed = self._crashed
        still: List[Tuple[int, DirectedEdge, Any]] = []
        for due, edge, payload in self._pending:
            if due > round_id:
                still.append((due, edge, payload))
            elif crashed and (edge[0] in crashed or edge[1] in crashed):
                self.fault_stats.dropped_messages += 1
            elif edge in surviving:
                # The edge carries a fresh message this round; the late one
                # waits one more round rather than silently clobbering it.
                still.append((round_id + 1, edge, payload))
            elif enforce_budget and payload_bits(payload) > self.bandwidth_bits:
                still.append((due, edge, payload))
            else:
                surviving[edge] = payload
        self._pending = still

    # -------------------------------------------------------------- primitives
    def exchange(self, messages: Mapping[DirectedEdge, Any],
                 label: str = "exchange") -> Dict[DirectedEdge, Any]:
        round_id = self._begin_round()
        surviving = self._filter(messages, round_id, label, validate=True,
                                 enforce_budget=self.mode == "congest")
        delivered = super().exchange(surviving, label=label)
        self.fault_stats.delivered_messages += len(delivered)
        return delivered

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> Dict[Node, Mapping[Node, Any]]:
        # Corruption is per edge, so a broadcast under faults is no longer
        # "one payload object to all": it is filtered edge by edge and
        # delivered through the oracle's exchange.
        round_id = self._begin_round()
        surviving = self._filter(self._per_edge(values), round_id, label,
                                 validate=False,
                                 enforce_budget=self.mode == "congest")
        delivered = super().exchange(surviving, label=label)
        self.fault_stats.delivered_messages += len(delivered)
        return self._inboxes(delivered)

    def exchange_chunked(
        self,
        messages: Mapping[DirectedEdge, Any],
        label: str = "exchange-chunked",
    ) -> Dict[DirectedEdge, Any]:
        round_id = self._begin_round()
        # Chunked streams legitimately exceed the per-round budget, so
        # removed messages skip the budget re-check here.
        surviving = self._filter(messages, round_id, label, validate=True,
                                 enforce_budget=False)
        delivered = super().exchange_chunked(surviving, label=label)
        self.fault_stats.delivered_messages += len(delivered)
        return delivered

    # broadcast_chunked and broadcast_discard are inherited: the oracle's
    # versions call the faulted exchange_chunked and broadcast above.

    def charge_silent_round(self, label: str = "silent") -> None:
        self._begin_round()
        super().charge_silent_round(label=label)
