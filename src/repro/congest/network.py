"""The synchronous CONGEST / LOCAL network.

A :class:`Network` is a thin facade over the three layers of the
communication engine (see DESIGN.md):

* :class:`~repro.congest.topology.Topology` — immutable CSR-style adjacency
  (cached node list, neighbor sets, degrees, contiguous node index);
* :class:`~repro.congest.transport.Transport` — the delivery mechanics,
  selected via ``backend=`` (``"columnar"``, the numpy fast path, by
  default; ``"dict"`` for the per-message reference semantics);
* :class:`~repro.metrics.ledger.Ledger` — the bandwidth accounting, selected
  via ``ledger=`` (``"records"`` keeps the full round history, ``"counters"``
  keeps aggregates only for big runs).

All communication goes through :meth:`Network.exchange` (per-edge directed
messages) or :meth:`Network.broadcast` (same message to all neighbours); every
call is exactly one synchronous round, and every per-edge payload is charged
its bit size against the bandwidth budget.

The budget defaults to ``ceil(bandwidth_factor * log2 n)`` bits, i.e. the
CONGEST model with ``log n`` bandwidth used in the paper (Theorem 1).  LOCAL
mode (``mode="local"``) removes the budget and is used by the LOCAL baselines
and by ablation benchmarks.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Tuple

import networkx as nx

from repro.congest.errors import ProtocolError  # noqa: F401  (re-export)
from repro.congest.topology import Topology
from repro.congest.transport import Transport, make_transport
from repro.metrics.ledger import (  # noqa: F401  (RoundRecord re-exported)
    BandwidthLedger,
    Ledger,
    RoundRecord,
    ledger_class,
    make_ledger,
)
from repro.obs.tracer import NULL_TRACER, Tracer

Node = Hashable
DirectedEdge = Tuple[Node, Node]

DEFAULT_BACKEND = "columnar"


def require_serial(shards: int) -> None:
    """Reject any ``shards`` other than 1: execution is always serial.

    The keyword survives on :class:`Network`, ``solve_d1c`` and
    ``solve_d1lc`` only so that callers passing ``shards=1`` keep working.
    """
    if shards != 1:
        raise ValueError(f"shards must be 1 (execution is serial), got {shards!r}")


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
        Explicit per-edge per-round budget in bits.  When omitted it defaults
        to ``ceil(bandwidth_factor * log2(max(n, 2)))``.
    bandwidth_factor:
        Multiplier on ``log2 n`` for the default budget.  The paper's
        algorithms use a constant number of ``log n``-bit words per round; a
        factor of 32 words keeps the accounting honest (every primitive still
        uses ``O(log n)`` bits) while leaving room for the constant factors
        that the paper hides in Θ-notation.
    backend:
        Transport backend: ``"columnar"`` (default) or ``"dict"``.  Both
        charge identical ledgers; ``"dict"`` keeps the original
        message-at-a-time reference implementation, and ``"columnar"`` is
        the numpy fast path, which also runs every similarity sweep as one
        vectorized kernel.
    ledger:
        Ledger kind (``"records"`` / ``"counters"``) or a
        :class:`~repro.metrics.ledger.Ledger` instance to share.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or a params mapping
        like ``{"drop": 0.01}``) that deterministically perturbs delivery —
        see :mod:`repro.faults`.  ``None`` or an all-default plan leaves the
        transport unwrapped, byte-identical to a fault-free network.  The
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
        Optional :class:`~repro.obs.tracer.Tracer` observing this run.  The
        default is the shared :data:`~repro.obs.tracer.NULL_TRACER`, which
        installs nothing — untraced runs execute the exact code they always
        did.  Passing a :class:`~repro.obs.tracer.RoundTracer` attaches it as
        the ledger's one round observer (and, with ``digest=True``, hands
        it every primitive's delivered payloads); tracing is
        observation-only (no RNG, no state mutation) and a traced run is
        byte-identical to an untraced one.
    """

    def __init__(
        self,
        graph: nx.Graph,
        mode: str = "congest",
        bandwidth_bits: Optional[int] = None,
        bandwidth_factor: float = 32.0,
        backend: str = DEFAULT_BACKEND,
        ledger: Any = None,
        faults: Any = None,
        fault_seed: int = 0,
        shards: int = 1,
        tracer: Optional[Tracer] = None,
    ):
        if mode not in ("congest", "local"):
            raise ValueError(f"unknown mode: {mode!r}")
        require_serial(shards)
        self.graph = graph
        self.bandwidth_factor = float(bandwidth_factor)
        if isinstance(backend, Transport):
            if faults is not None:
                from repro.faults.plan import FaultPlan

                if FaultPlan.coerce(faults) is not None:
                    raise ValueError(
                        "faults= conflicts with an already-built transport "
                        "instance; wrap it via make_transport(faults=...) first"
                    )
            # Adopt the instance's wiring wholesale: the facade's views and
            # accounting must describe the transport that actually runs, not
            # freshly-built ones it would silently bypass.  Conflicting
            # explicit arguments are rejected rather than silently ignored.
            if backend.topology.graph is not graph:
                raise ValueError(
                    "transport instance was built on a different graph than "
                    "the one passed to Network"
                )
            if mode != backend.mode:
                raise ValueError(
                    f"mode={mode!r} conflicts with the transport instance's "
                    f"mode={backend.mode!r}"
                )
            if bandwidth_bits is not None and int(bandwidth_bits) != backend.bandwidth_bits:
                raise ValueError(
                    f"bandwidth_bits={bandwidth_bits} conflicts with the "
                    f"transport instance's budget of {backend.bandwidth_bits}"
                )
            if ledger is not None:
                if isinstance(ledger, Ledger):
                    if ledger is not backend.ledger:
                        raise ValueError(
                            "ledger instance conflicts with the transport "
                            "instance's ledger (the transport's own ledger is "
                            "always used)"
                        )
                elif ledger_class(ledger) is not type(backend.ledger):
                    raise ValueError(
                        f"ledger={ledger!r} conflicts with the transport "
                        f"instance's {type(backend.ledger).__name__}"
                    )
            self.transport = backend
            self.topology = backend.topology
            self.mode = backend.mode
            self.bandwidth_bits = backend.bandwidth_bits
            self.ledger: Ledger = backend.ledger
        else:
            self.mode = mode
            self.topology = Topology(graph)
            n = max(self.topology.number_of_nodes, 2)
            if bandwidth_bits is None:
                bandwidth_bits = int(math.ceil(bandwidth_factor * math.log2(n)))
            self.ledger = make_ledger(ledger)
            self.transport = make_transport(
                backend, self.topology, self.mode, int(bandwidth_bits),
                self.ledger, faults=faults, fault_seed=fault_seed,
            )
            # The transport owns the effective budget: a fault plan's
            # throttle factor may have scaled it at construction.
            self.bandwidth_bits = self.transport.bandwidth_bits
        self.backend = self.transport.name
        self.tracer: Tracer = NULL_TRACER if tracer is None else tracer
        if self.tracer.enabled:
            self.tracer.attach(self)

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

    def are_adjacent(self, u: Node, v: Node) -> bool:
        return self.topology.are_adjacent(u, v)

    def index_of(self, v: Node) -> int:
        """Contiguous index of ``v`` (see :meth:`Topology.index_of`)."""
        return self.topology.index_of(v)

    def node_at(self, i: int) -> Node:
        """Node with contiguous index ``i`` (see :meth:`Topology.node_at`)."""
        return self.topology.node_at(i)

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
        if self.tracer.wants_payloads:
            self.tracer.note_exchange(delivered)
        return delivered

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
        senders_only_to: Optional[Mapping[Node, Iterable[Node]]] = None,
    ) -> Dict[Node, Mapping[Node, Any]]:
        """Each node in ``values`` sends the same payload to (all) neighbours.

        Returns an inbox per node: ``inbox[v][u]`` is the payload ``v``
        received from neighbour ``u``.  ``senders_only_to`` optionally
        restricts each sender's recipients to a subset of its neighbours.
        Inboxes are read-only views (empty ones are shared); copy before
        mutating.
        """
        inboxes = self.transport.broadcast(
            values, label=label, senders_only_to=senders_only_to
        )
        if self.tracer.wants_payloads:
            self.tracer.note_inboxes(inboxes)
        return inboxes

    def broadcast_discard(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> None:
        """:meth:`broadcast` for callers that discard the inboxes.

        Ledger accounting is identical to a full broadcast; backends that
        can skip inbox materialisation (columnar) do so here.
        """
        self.transport.broadcast_discard(values, label=label)
        if self.tracer.wants_payloads:
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
        if self.tracer.wants_payloads:
            self.tracer.note_exchange(delivered)
        return delivered

    def broadcast_chunked(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast-chunked",
    ) -> Dict[Node, Mapping[Node, Any]]:
        """Chunked variant of :meth:`broadcast` for payloads above the budget."""
        inboxes = self.transport.broadcast_chunked(values, label=label)
        if self.tracer.wants_payloads:
            self.tracer.note_inboxes(inboxes)
        return inboxes

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

    def summary(self) -> Dict[str, Any]:
        """Return a compact dictionary describing resource usage so far."""
        summary = {
            "mode": self.mode,
            "backend": self.backend,
            "nodes": self.number_of_nodes,
            "edges": self.number_of_edges,
            "bandwidth_bits": self.bandwidth_bits,
            "rounds": self.ledger.rounds,
            "total_bits": self.ledger.total_bits,
            "total_messages": self.ledger.total_messages,
            "max_edge_bits": self.ledger.max_edge_bits,
        }
        plan = getattr(self.transport, "fault_plan", None)
        if plan is not None:
            summary["faults"] = plan.canonical()
            summary.update(self.fault_stats or {})
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Network(n={self.number_of_nodes}, m={self.number_of_edges}, "
            f"mode={self.mode!r}, backend={self.backend!r}, "
            f"bandwidth={self.bandwidth_bits} bits, rounds={self.ledger.rounds})"
        )
