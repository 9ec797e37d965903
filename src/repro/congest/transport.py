"""Pluggable message-transport backends for the CONGEST/LOCAL engine.

A :class:`Transport` owns the *mechanics* of a synchronous round — validating
edges, sizing payloads, enforcing the bandwidth budget, delivering messages
and reporting the round to the ledger — on top of an immutable
:class:`~repro.congest.topology.Topology`.  Two backends are provided:

* :class:`DictTransport` (``backend="dict"``) processes one message at a
  time, exactly as the original ``Network.exchange`` did: validate, size,
  budget-check and deliver each entry in order.  It is the reference
  semantics (the oracle).
* :class:`~repro.congest.columnar.transport.ColumnarTransport`
  (``backend="columnar"``, the default) is the fast path: bulk sizing with a
  pooled per-round memo, a deferred budget audit, vectorized CSR broadcast
  routing and chunked-round accounting, and the vectorized
  ``EstimateSimilarity`` kernel.

Broadcast inboxes from **both** backends are read-only views: silent nodes
share one immutable empty mapping instead of each allocating a dict every
round (``{v: {} for v in nodes}`` used to dominate broadcast cost on large
sparse rounds).  Callers that want to mutate an inbox must copy it.

The paper-fidelity contract (see DESIGN.md) is that both backends produce
**identical ledgers** — the same rounds, labels, message counts, total bits
and per-round maxima — and deliver the same payloads for the same inputs.
The cross-backend equivalence suite enforces this.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Hashable, Mapping, Tuple

from repro.congest.bandwidth import payload_bits
from repro.congest.errors import BandwidthExceeded, ProtocolError
from repro.congest.message import Message, unwrap
from repro.congest.topology import Topology
from repro.metrics.ledger import Ledger

Node = Hashable
DirectedEdge = Tuple[Node, Node]

#: Shared read-only inbox for nodes that received nothing this round.
EMPTY_INBOX: Mapping[Node, Any] = MappingProxyType({})


def _memoized_bits(payload: Any, memo: Dict[int, int]) -> int:
    """Charge for ``payload``, memoized by object identity within one round.

    The single sizing rule of the columnar path (exchange, broadcast and
    chunked):
    a ``Message`` is charged its declared bits; anything else goes through
    :func:`payload_bits` once per distinct object (a broadcast reuses one
    payload object for all recipients).  Identity keys are safe because the
    caller's message mapping keeps every payload alive for the whole round.
    """
    if isinstance(payload, Message):
        return payload.bits
    key = id(payload)
    bits = memo.get(key)
    if bits is None:
        bits = payload_bits(payload)
        memo[key] = bits
    return bits


class Transport:
    """Base class: delivery mechanics over a topology, charged to a ledger."""

    name = "abstract"

    def __init__(self, topology: Topology, mode: str, bandwidth_bits: int,
                 ledger: Ledger):
        self.topology = topology
        self.mode = mode
        self.bandwidth_bits = int(bandwidth_bits)
        self.ledger = ledger

    # ------------------------------------------------------------- primitives
    def exchange(self, messages: Mapping[DirectedEdge, Any],
                 label: str = "exchange") -> Dict[DirectedEdge, Any]:
        raise NotImplementedError

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> Dict[Node, Mapping[Node, Any]]:
        raise NotImplementedError

    def broadcast_discard(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> None:
        """Broadcast whose inboxes the caller discards.

        Several protocol steps (the ACD's participation and degree
        announcements) broadcast purely so the *ledger* reflects the
        communication; the delivered inboxes are thrown away.  The default
        implementation simply broadcasts and drops the result, so accounting
        is identical by construction; backends that can skip inbox
        materialisation entirely (columnar) override this with an
        accounting-only path charged byte-identically.
        """
        self.broadcast(values, label=label)
        return None

    def charge_silent_round(self, label: str = "silent") -> None:
        self.ledger.record_round(label, 0, 0, 0)

    # ---------------------------------------------------------------- chunked
    def _sizes(self, messages: Mapping[DirectedEdge, Any]) -> Dict[DirectedEdge, int]:
        """Size every payload (backends may memoize repeated payloads)."""
        return {edge: payload_bits(payload) for edge, payload in messages.items()}

    def _validate_edge(self, sender: Node, receiver: Node) -> None:
        if sender == receiver:
            raise ProtocolError(f"node {sender!r} cannot message itself")
        if receiver not in self.topology.neighbors(sender):
            raise ProtocolError(
                f"{sender!r} and {receiver!r} are not adjacent; CONGEST only "
                "allows communication along edges"
            )

    def exchange_chunked(
        self,
        messages: Mapping[DirectedEdge, Any],
        label: str = "exchange-chunked",
    ) -> Dict[DirectedEdge, Any]:
        """Deliver messages that may exceed the per-round budget.

        CONGEST allows a long message to be streamed over several rounds, one
        budget-sized chunk per round; all messages stream in parallel on their
        own edges, so the cost is ``ceil(max_message_bits / budget)`` rounds.
        In LOCAL mode this is exactly one round charged with the true
        per-edge sizes, identical to what :meth:`exchange` would charge.

        The per-round ledger entries mirror a chunk-by-chunk simulation: in
        each round every still-streaming edge contributes ``budget`` bits
        (or its final remainder), and every message is counted once per round
        it occupies its edge.
        """
        if not messages:
            self.ledger.record_round(label, 0, 0, 0)
            return {}
        for sender, receiver in messages:
            self._validate_edge(sender, receiver)
        sizes = self._sizes(messages)
        if self.mode == "local":
            # Exactly one round, charged with the true per-edge sizes — the
            # same record exchange() would produce for these messages.
            self.ledger.record_round(
                label, len(sizes), sum(sizes.values()), max(sizes.values())
            )
        else:
            self._charge_chunked_rounds(label, sizes)
        return {edge: unwrap(payload) for edge, payload in messages.items()}

    def _charge_chunked_rounds(self, label: str, sizes: Mapping[DirectedEdge, int]) -> None:
        """Charge the CONGEST chunk rounds arithmetically (O(edges + rounds)).

        Equivalent to simulating every round over every edge, but grouped by
        each message's chunk count so large fan-outs do not pay
        ``O(rounds * edges)`` in Python.
        """
        budget = self.bandwidth_bits
        zero_count = 0
        finish_count: Dict[int, int] = {}
        finish_bits: Dict[int, int] = {}
        finish_max: Dict[int, int] = {}
        total_rounds = 1
        for bits in sizes.values():
            if bits <= 0:
                zero_count += 1
                continue
            chunks = -(-bits // budget)  # ceil
            remainder = bits - (chunks - 1) * budget
            finish_count[chunks] = finish_count.get(chunks, 0) + 1
            finish_bits[chunks] = finish_bits.get(chunks, 0) + remainder
            if remainder > finish_max.get(chunks, 0):
                finish_max[chunks] = remainder
            if chunks > total_rounds:
                total_rounds = chunks
        streaming = sum(finish_count.values())  # edges still active this round
        record = self.ledger.record_round
        for r in range(1, total_rounds + 1):
            finishing = finish_count.get(r, 0)
            full = streaming - finishing  # edges that send a full budget chunk
            count = streaming + (zero_count if r == 1 else 0)
            bits = budget * full + finish_bits.get(r, 0)
            max_bits = budget if full > 0 else finish_max.get(r, 0)
            record(label, count, bits, max_bits)
            streaming -= finishing

    def broadcast_chunked(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast-chunked",
    ) -> Dict[Node, Mapping[Node, Any]]:
        """Chunked variant of :meth:`broadcast` for payloads above the budget."""
        messages: Dict[DirectedEdge, Any] = {}
        for sender, payload in values.items():
            for receiver in self.topology.neighbors(sender):
                messages[(sender, receiver)] = payload
        delivered = self.exchange_chunked(messages, label=label)
        return self._inboxes(delivered)

    def _inboxes(self, delivered: Mapping[DirectedEdge, Any]) -> Dict[Node, Mapping[Node, Any]]:
        """Group delivered messages into one inbox per node.

        Both backends share this: real dicts are allocated only for nodes
        that actually received something; every silent node gets the one
        shared immutable empty mapping.  Inboxes are read-only views —
        callers that want to mutate must copy (no in-repo algorithm does).
        """
        inbox: Dict[Node, Mapping[Node, Any]] = dict.fromkeys(
            self.topology.nodes, EMPTY_INBOX
        )
        for (sender, receiver), payload in delivered.items():
            box = inbox[receiver]
            if box is EMPTY_INBOX:
                box = {}
                inbox[receiver] = box
            box[sender] = payload
        return inbox


class DictTransport(Transport):
    """Reference backend: per-message validation, sizing and budget checks.

    This preserves the original ``Network.exchange`` semantics entry by
    entry — including the order in which violations are detected — and is
    the oracle the equivalence suite measures the ``columnar`` backend
    against.
    """

    name = "dict"

    def exchange(self, messages: Mapping[DirectedEdge, Any],
                 label: str = "exchange") -> Dict[DirectedEdge, Any]:
        total_bits = 0
        max_edge_bits = 0
        delivered: Dict[DirectedEdge, Any] = {}
        congest = self.mode == "congest"
        for (sender, receiver), payload in messages.items():
            self._validate_edge(sender, receiver)
            bits = payload_bits(payload)
            if congest and bits > self.bandwidth_bits:
                raise BandwidthExceeded(
                    (sender, receiver), bits, self.bandwidth_bits, label
                )
            total_bits += bits
            max_edge_bits = max(max_edge_bits, bits)
            delivered[(sender, receiver)] = unwrap(payload)
        self.ledger.record_round(label, len(delivered), total_bits, max_edge_bits)
        return delivered

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> Dict[Node, Mapping[Node, Any]]:
        messages: Dict[DirectedEdge, Any] = {}
        for sender, payload in values.items():
            for receiver in self.topology.neighbors(sender):
                messages[(sender, receiver)] = payload
        delivered = self.exchange(messages, label=label)
        return self._inboxes(delivered)


#: Backends selectable via ``Network(backend=...)``: the ``dict`` reference
#: oracle and the ``columnar`` fast path.  The one list of backend names the
#: CLI, the scenario specs and the benchmarks read.
TRANSPORT_BACKENDS: Tuple[str, ...] = ("columnar", "dict")


def _transport_class(backend):
    if backend == "dict":
        return DictTransport
    if backend == "columnar":
        # Imported lazily: the columnar module subclasses Transport from here.
        from repro.congest.columnar.transport import ColumnarTransport

        return ColumnarTransport
    raise ValueError(
        f"unknown transport backend: {backend!r} "
        f"(expected one of {list(TRANSPORT_BACKENDS)})"
    )


def make_transport(backend, topology: Topology, mode: str, bandwidth_bits: int,
                   ledger: Ledger, faults=None, fault_seed: int = 0) -> Transport:
    """Build a transport from a backend name (``columnar`` or ``dict``).

    ``faults`` optionally wraps the backend in a
    :class:`~repro.faults.transport.FaultyTransport` driven by a
    :class:`~repro.faults.plan.FaultPlan` (or a plain params mapping) and
    ``fault_seed``.  The plan's bandwidth throttle is applied to the budget
    *here*, at the single construction point, so every caller sees the
    throttled budget.  A ``None``/no-op plan changes nothing: the bare
    backend instance is returned, keeping fault-free runs byte-identical.
    """
    # Imported lazily: repro.faults depends on this module for the Transport
    # base class, so a module-level import would be circular.
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.coerce(faults)
    cls = _transport_class(backend)
    if plan is None:
        return cls(topology, mode, bandwidth_bits, ledger)
    from repro.faults.transport import FaultyTransport

    inner = cls(topology, mode, plan.throttled_bandwidth(bandwidth_bits), ledger)
    return FaultyTransport(inner, plan, seed=fault_seed)
