"""Message-transport backends for the CONGEST/LOCAL engine.

A transport owns the *mechanics* of a synchronous round — validating edges,
sizing payloads, enforcing the bandwidth budget, delivering messages and
reporting the round to the ledger — on top of an immutable
:class:`~repro.congest.topology.Topology`.  The transport tree has one
root:

* :class:`DictTransport` (``backend="dict"``) processes one message at a
  time, exactly as the original ``Network.exchange`` did: validate, size,
  budget-check and deliver each entry in order.  It is the reference
  semantics (the oracle): its broadcasts expand the round per edge through
  ``exchange`` / ``exchange_chunked``.
* :class:`~repro.congest.columnar.transport.ColumnarTransport`
  (``backend="columnar"``, the default) is the fast path: it inherits the
  oracle's ``exchange`` and chunked primitives and overrides only
  ``broadcast``, which it accounts in one vectorized pass and routes along
  the topology's CSR rows; it also runs the vectorized ``EstimateSimilarity``
  kernel.
* :class:`~repro.faults.transport.FaultyTransport`, which
  :func:`make_transport` builds under a fault plan whatever the backend
  name, is the oracle with every exchange perturbed by the plan.

Every payload is charged :func:`~repro.congest.bandwidth.payload_bits`, and
every chunked stream is charged by :meth:`DictTransport.charge_chunked`.
Every broadcast returns its deliveries as :class:`Deliveries` columns over
the topology's node index, in no promised order.

The paper-fidelity contract (see DESIGN.md) is that both backends produce
**identical ledgers** — the same rounds, labels, message counts, total bits
and per-round maxima — and deliver the same payloads for the same inputs.
The cross-backend equivalence suite enforces this.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Hashable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.congest.bandwidth import payload_bits
from repro.congest.errors import BandwidthExceeded, ProtocolError
from repro.congest.message import Message, unwrap
from repro.congest.topology import Topology
from repro.metrics.ledger import Ledger
from repro.obs.forensics.digest import flatten_exchange

Node = Hashable
DirectedEdge = Tuple[Node, Node]


class Deliveries(NamedTuple):
    """One round's deliveries as aligned columns over the topology's node index.

    Delivery ``k`` carries ``values[slots[k]]`` from node ``senders[k]`` to
    node ``receivers[k]`` (both indices into ``Topology.nodes``).  The
    columnar broadcast names each sender's value once, so ``slots`` is the
    sender's position in send order; the oracle names one value per
    delivery, because a fault plan corrupts each edge's copy on its own.
    Deliveries come in no particular order.
    """

    receivers: "np.ndarray"
    senders: "np.ndarray"
    values: List[Any]
    slots: "np.ndarray"

    @classmethod
    def from_exchange(cls, delivered: Mapping[DirectedEdge, Any],
                      topology: Topology) -> "Deliveries":
        """An exchange's ``{(sender, receiver): payload}`` result as columns,
        one value per delivery."""
        senders, receivers, values = flatten_exchange(delivered)
        return cls(topology.index_array(receivers), topology.index_array(senders),
                   values, np.arange(len(values), dtype=np.int64))

    def labelled(self, nodes) -> Tuple[List[Node], List[Node], List[Any]]:
        """``(senders, receivers, values)`` per delivery, as node labels."""
        values = self.values
        return ([nodes[i] for i in self.senders.tolist()],
                [nodes[i] for i in self.receivers.tolist()],
                [values[slot] for slot in self.slots.tolist()])


class DictTransport:
    """Reference backend: per-message validation, sizing and budget checks.

    This preserves the original ``Network.exchange`` semantics entry by
    entry — including the order in which violations are detected — and is
    the oracle the equivalence suite measures the ``columnar`` backend
    against.
    """

    name = "dict"

    def __init__(self, topology: Topology, mode: str, bandwidth_bits: int,
                 ledger: Ledger):
        self.topology = topology
        self.mode = mode
        self.bandwidth_bits = int(bandwidth_bits)
        self.ledger = ledger

    # ------------------------------------------------------------- primitives
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
        bits: Optional[int] = None,
    ) -> Deliveries:
        """Each sender in ``values`` sends its payload to all its neighbours.

        With ``bits``, every value is charged as ``Message(value, bits)``
        would be; without, each payload is charged its ``payload_bits``.
        The oracle expands the round per edge and delivers it through
        :meth:`exchange`, so a fault plan perturbs each edge's copy on its
        own and the deliveries name one value each.
        """
        return Deliveries.from_exchange(
            self.exchange(self._per_edge(values, bits), label=label), self.topology
        )

    def charge_silent_round(self, label: str = "silent") -> None:
        self.ledger.record_round(label, 0, 0, 0)

    def _per_edge(self, values: Mapping[Node, Any],
                  bits: Optional[int] = None) -> Dict[DirectedEdge, Any]:
        """One message per edge for a broadcast of ``values``.

        Sender-major, in topology neighbor order; an unknown sender raises
        the canonical ProtocolError.  With ``bits`` each sender's value is
        wrapped in one ``Message(value, bits)``.
        """
        neighbors = self.topology.neighbors
        if bits is not None:
            values = {v: Message(content=value, bits=bits) for v, value in values.items()}
        return {
            (sender, receiver): payload
            for sender, payload in values.items()
            for receiver in neighbors(sender)
        }

    # ---------------------------------------------------------------- chunked
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
        The rounds are charged by :meth:`charge_chunked`.
        """
        for sender, receiver in messages:
            self._validate_edge(sender, receiver)
        self.charge_chunked(label, Counter(map(payload_bits, messages.values())))
        return {edge: unwrap(payload) for edge, payload in messages.items()}

    def charge_chunked(self, label: str, size_counts: Mapping[int, int]) -> None:
        """Charge one chunked stream given ``{payload bits: message count}``.

        The one chunk accounting: :meth:`exchange_chunked` passes it the
        sizes of its payloads, and the columnar similarity kernel the sizes
        of the messages it does not build.  Every count is positive.  With
        no message it records one empty round, and in LOCAL mode one round
        with the true sizes.  In CONGEST mode the records are those of a
        literal chunk-by-chunk simulation: each round, every message still
        streaming sends one ``budget``-bit chunk (its last chunk the
        remainder) and is counted once, and a zero-bit message occupies
        round 1 only.  They are built from a histogram over chunk counts,
        grouped by distinct size, so the work is ``O(sizes + rounds)``, not
        ``O(rounds * edges)``.
        """
        record = self.ledger.record_round
        if not size_counts:
            record(label, 0, 0, 0)
            return
        if self.mode == "local":
            record(label, sum(size_counts.values()),
                   sum(bits * count for bits, count in size_counts.items()),
                   max(size_counts))
            return
        budget = self.bandwidth_bits
        zero_count = 0
        finish_count: Dict[int, int] = {}
        finish_bits: Dict[int, int] = {}
        finish_max: Dict[int, int] = {}
        total_rounds = 1
        for bits, count in size_counts.items():
            if bits <= 0:
                zero_count += count
                continue
            chunks = -(-bits // budget)  # ceil
            remainder = bits - (chunks - 1) * budget
            finish_count[chunks] = finish_count.get(chunks, 0) + count
            finish_bits[chunks] = finish_bits.get(chunks, 0) + count * remainder
            if remainder > finish_max.get(chunks, 0):
                finish_max[chunks] = remainder
            if chunks > total_rounds:
                total_rounds = chunks
        streaming = sum(finish_count.values())  # edges still active this round
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
    ) -> Deliveries:
        """Chunked variant of :meth:`broadcast` for payloads above the budget."""
        return Deliveries.from_exchange(
            self.exchange_chunked(self._per_edge(values), label=label), self.topology
        )


#: Backends selectable via ``Network(backend=...)``: the ``dict`` reference
#: oracle and the ``columnar`` fast path.  The one list of backend names the
#: CLI, the scenario specs and the benchmarks read.
TRANSPORT_BACKENDS: Tuple[str, ...] = ("columnar", "dict")


def _transport_class(backend):
    if backend == "dict":
        return DictTransport
    if backend == "columnar":
        # Imported lazily: the columnar module subclasses DictTransport.
        from repro.congest.columnar.transport import ColumnarTransport

        return ColumnarTransport
    raise ValueError(
        f"unknown transport backend: {backend!r} "
        f"(expected one of {list(TRANSPORT_BACKENDS)})"
    )


def make_transport(backend, topology: Topology, mode: str, bandwidth_bits: int,
                   ledger: Ledger, faults=None,
                   fault_seed: int = 0) -> DictTransport:
    """Build a transport from a backend name (``columnar`` or ``dict``).

    ``bandwidth_bits`` must be at least 1: a zero budget would divide by
    zero in the first chunked round, and a negative one would charge a
    chunked message negative bits.  ``faults`` optionally perturbs delivery
    with a :class:`~repro.faults.plan.FaultPlan` (or a plain params mapping)
    and ``fault_seed``: the backend name is still validated, but what is
    built is a :class:`~repro.faults.transport.FaultyTransport`, the
    ``dict`` oracle under the plan, so ``backend`` has no effect on a
    faulted run.  The plan's bandwidth throttle is applied to the budget
    *here*, at the single construction point, so every caller sees the
    throttled budget.  A ``None``/no-op plan changes nothing: the bare
    backend instance is returned, keeping fault-free runs byte-identical.
    """
    # Imported lazily: repro.faults subclasses DictTransport from this
    # module, so a module-level import would be circular.
    from repro.faults.plan import FaultPlan

    if int(bandwidth_bits) < 1:
        raise ValueError(f"bandwidth_bits must be at least 1, got {bandwidth_bits!r}")
    plan = FaultPlan.coerce(faults)
    cls = _transport_class(backend)
    if plan is None:
        return cls(topology, mode, bandwidth_bits, ledger)
    from repro.faults.transport import FaultyTransport

    return FaultyTransport(topology, mode,
                           plan.throttled_bandwidth(int(bandwidth_bits)),
                           ledger, plan, seed=fault_seed)
