"""The synchronous CONGEST / LOCAL network.

A :class:`Network` is a thin facade over the three layers of the
communication engine (see DESIGN.md):

* :class:`~repro.congest.topology.Topology` — immutable CSR-style adjacency
  (cached node list, neighbor sets, degrees, contiguous node index);
* the transport (:func:`~repro.congest.transport.make_transport`) — the
  delivery mechanics, selected via ``backend=`` (``"columnar"``, the numpy
  fast path, by default; ``"dict"`` for the per-message reference
  semantics);
* :class:`~repro.metrics.ledger.Ledger` — the bandwidth accounting: the
  aggregates plus one record per round.

All communication goes through :meth:`Network.exchange` (per-edge directed
messages) or :meth:`Network.broadcast` (same message to all neighbours,
whose deliveries come back as columns); every call is exactly one
synchronous round, and every per-edge payload is charged its bit size
against the bandwidth budget.

The budget defaults to ``ceil(BUDGET_WORDS * log2 n)`` bits, i.e. the
CONGEST model with ``log n`` bandwidth used in the paper (Theorem 1).  LOCAL
mode (``mode="local"``) removes the budget and is used by the LOCAL baselines
and by ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

import networkx as nx

from repro.congest.errors import ProtocolError  # noqa: F401  (re-export)
from repro.congest.topology import Topology
from repro.congest.transport import Deliveries, make_transport
from repro.metrics.ledger import (  # noqa: F401  (RoundRecord re-exported)
    Ledger,
    RoundRecord,
)
from repro.obs.tracer import RoundTracer

Node = Hashable
DirectedEdge = Tuple[Node, Node]

DEFAULT_BACKEND = "columnar"

#: The default budget is this many ``log2 n``-bit words per edge per round.
#: The paper's algorithms use a constant number of ``log n``-bit words per
#: round; 32 words keep the accounting honest (every primitive still uses
#: ``O(log n)`` bits) while leaving room for the constant factors that the
#: paper hides in Θ-notation.
BUDGET_WORDS = 32


def check_compat_keywords(shards: int, ledger: Optional[str]) -> None:
    """Reject ``shards`` other than 1 and ``ledger`` other than None/records/counters.

    Both keywords survive on :class:`Network`, ``solve_d1c`` and
    ``solve_d1lc`` only so that callers passing ``shards=1`` or
    ``ledger="counters"`` keep working: execution is always serial, and
    every network keeps one :class:`~repro.metrics.ledger.Ledger`.
    """
    if shards != 1:
        raise ValueError(f"shards must be 1 (execution is serial), got {shards!r}")
    if ledger not in (None, "records", "counters"):
        raise ValueError(
            f"unknown ledger {ledger!r} (there is one ledger; None, "
            "'records' and 'counters' are accepted and select nothing)"
        )


class Network:
    """A synchronous message-passing network over an undirected graph.

    Parameters
    ----------
    graph:
        The communication graph.  Self-loops are rejected.
    mode:
        ``"congest"`` (default) enforces the per-edge bandwidth budget;
        ``"local"`` allows messages of arbitrary size.
    bandwidth_bits:
        Explicit per-edge per-round budget in bits, at least 1.  When
        omitted it defaults to ``ceil(BUDGET_WORDS * log2(max(n, 2)))``.
    backend:
        Transport backend: ``"columnar"`` (default) or ``"dict"``.  Both
        charge identical ledgers; ``"dict"`` keeps the original
        message-at-a-time reference implementation, and ``"columnar"`` is
        the numpy fast path, which also runs every similarity sweep as one
        vectorized kernel.  Under a fault plan the name is still validated,
        but the run takes the ``dict`` oracle's code either way.
    ledger:
        Accepted for compatibility with callers that pass
        ``ledger="counters"``; see :func:`check_compat_keywords`.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or a params mapping
        like ``{"drop": 0.01}``) that deterministically perturbs delivery —
        see :mod:`repro.faults`.  ``None`` or an all-default plan builds the
        bare backend, byte-identical to a fault-free network.  The
        plan's ``throttle`` factor scales the bandwidth budget (and
        :attr:`bandwidth_bits` reports the throttled value).
    fault_seed:
        Seed for the fault layer's RNG; combined with the plan through the
        repo-wide ``derive_seed`` chain so a fixed (seed, plan) pair
        reproduces byte-identically across backends and processes.
    shards:
        Accepted for compatibility with callers that pass ``shards=1``;
        any other value raises :class:`ValueError`.  Execution is always
        serial in this process.
    tracer:
        Optional :class:`~repro.obs.tracer.RoundTracer` observing this run,
        attached as the ledger's one round observer (and, with
        ``digest=True``, handed every primitive's delivered payloads).
        ``None`` (the default) installs nothing, so untraced runs execute
        the exact code they always did; tracing is observation-only (no
        RNG, no state mutation) and a traced run is byte-identical to an
        untraced one.
    """

    def __init__(
        self,
        graph: nx.Graph,
        mode: str = "congest",
        bandwidth_bits: Optional[int] = None,
        backend: str = DEFAULT_BACKEND,
        ledger: Optional[str] = None,
        faults: Any = None,
        fault_seed: int = 0,
        shards: int = 1,
        tracer: Optional[RoundTracer] = None,
    ):
        if mode not in ("congest", "local"):
            raise ValueError(f"unknown mode: {mode!r}")
        check_compat_keywords(shards, ledger)
        self.graph = graph
        self.mode = mode
        self.topology = Topology(graph)
        n = max(self.topology.number_of_nodes, 2)
        if bandwidth_bits is None:
            bandwidth_bits = int(math.ceil(BUDGET_WORDS * math.log2(n)))
        self.ledger = Ledger()
        self.transport = make_transport(
            backend, self.topology, self.mode, bandwidth_bits,
            self.ledger, faults=faults, fault_seed=fault_seed,
        )
        # The transport owns the effective budget: a fault plan's
        # throttle factor may have scaled it at construction.
        self.bandwidth_bits = self.transport.bandwidth_bits
        self.backend = self.transport.name
        self.tracer = tracer
        if tracer is not None:
            tracer.attach(self)

    # ------------------------------------------------------------------ views
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in insertion order (cached — safe in hot loops)."""
        return self.topology.nodes

    @property
    def number_of_nodes(self) -> int:
        return self.topology.number_of_nodes

    @property
    def number_of_edges(self) -> int:
        return self.topology.number_of_edges

    @property
    def rounds_used(self) -> int:
        return self.ledger.rounds

    def neighbors(self, v: Node) -> frozenset:
        return self.topology.neighbors(v)

    def degree(self, v: Node) -> int:
        return self.topology.degree(v)

    def max_degree(self) -> int:
        return self.topology.max_degree()

    # ---------------------------------------------------------- communication
    def exchange(
        self,
        messages: Mapping[DirectedEdge, Any],
        label: str = "exchange",
    ) -> Dict[DirectedEdge, Any]:
        """Run one synchronous round delivering per-edge directed messages.

        ``messages`` maps ``(sender, receiver)`` to a payload.  The result
        maps the same ``(sender, receiver)`` keys to the (unwrapped) payloads,
        i.e. entry ``(u, v)`` is what ``v`` received from ``u`` this round.
        Nodes that send nothing simply do not appear.

        Raises
        ------
        ProtocolError
            If a message is addressed along a non-edge.
        BandwidthExceeded
            If any single payload exceeds the bandwidth budget (CONGEST mode).
        """
        delivered = self.transport.exchange(messages, label=label)
        if self.tracer is not None and self.tracer.digest:
            self.tracer.note_exchange(delivered)
        return delivered

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
        bits: Optional[int] = None,
    ) -> Deliveries:
        """Each node in ``values`` sends its value to all its neighbours.

        With ``bits``, every value is charged as ``Message(value, bits)``
        would be; without, each payload is charged its ``payload_bits``.
        Returns the round's deliveries as
        :class:`~repro.congest.transport.Deliveries` columns (unwrapped
        payloads, in no particular order).
        """
        deliveries = self.transport.broadcast(values, label=label, bits=bits)
        if self.tracer is not None and self.tracer.digest:
            self.tracer.note_edges(*deliveries.labelled(self.topology.nodes))
        return deliveries

    def broadcast_discard(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> None:
        """:meth:`broadcast` for callers that discard the deliveries.

        The round is the same; a digesting tracer hashes the sent values
        per sender instead of the deliveries.
        """
        self.transport.broadcast(values, label=label)
        if self.tracer is not None and self.tracer.digest:
            self.tracer.note_values(values)

    def exchange_chunked(
        self,
        messages: Mapping[DirectedEdge, Any],
        label: str = "exchange-chunked",
    ) -> Dict[DirectedEdge, Any]:
        """Deliver messages that may exceed the per-round budget.

        CONGEST allows a long message to be streamed over several rounds, one
        budget-sized chunk per round.  This helper charges
        ``ceil(max_message_bits / budget)`` rounds (all messages stream in
        parallel on their own edges) and then delivers the full payloads.  In
        LOCAL mode it charges exactly one round with the true per-edge sizes,
        identical to :meth:`exchange`.

        The paper's primitives use this for the ``σ``-bit indicator strings of
        ``EstimateSimilarity``/``MultiTrial``: with constant ``ε`` those are
        ``O(log n)`` bits, i.e. a constant number of rounds, but the constant
        depends on ``ε`` — the simulator makes that cost explicit.
        """
        delivered = self.transport.exchange_chunked(messages, label=label)
        if self.tracer is not None and self.tracer.digest:
            self.tracer.note_exchange(delivered)
        return delivered

    def broadcast_chunked(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast-chunked",
    ) -> Deliveries:
        """Chunked variant of :meth:`broadcast` for payloads above the budget."""
        deliveries = self.transport.broadcast_chunked(values, label=label)
        if self.tracer is not None and self.tracer.digest:
            self.tracer.note_edges(*deliveries.labelled(self.topology.nodes))
        return deliveries

    def charge_silent_round(self, label: str = "silent") -> None:
        """Advance the round counter without sending anything.

        Used when an algorithm must stay synchronised across phases even
        though some nodes have nothing to say this round.
        """
        self.transport.charge_silent_round(label=label)

    # -------------------------------------------------------------- reporting
    @property
    def fault_stats(self) -> Optional[Dict[str, int]]:
        """Fault-layer outcome counters, or ``None`` on a fault-free network."""
        stats = getattr(self.transport, "fault_stats", None)
        return None if stats is None else stats.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Network(n={self.number_of_nodes}, m={self.number_of_edges}, "
            f"mode={self.mode!r}, backend={self.backend!r}, "
            f"bandwidth={self.bandwidth_bits} bits, rounds={self.ledger.rounds})"
        )
