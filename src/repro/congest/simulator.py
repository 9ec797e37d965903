"""Generic round-by-round driver for :class:`NodeProgram` algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.congest.network import Network
from repro.congest.node import NodeState
from repro.congest.program import NodeProgram, ProgramContext
from repro.utils.rng import RngStream

Node = Hashable


@dataclass
class SimulationResult:
    """Outcome of driving a node program to completion."""

    rounds: int
    outputs: Dict[Node, Any]
    states: Dict[Node, NodeState] = field(repr=False, default_factory=dict)
    halted: bool = True

    def all_halted(self) -> bool:
        return self.halted


class Simulator:
    """Drives a :class:`NodeProgram` synchronously on a :class:`Network`.

    Parameters
    ----------
    network:
        The communication substrate (CONGEST or LOCAL, any transport
        backend — the driver only uses the public ``Network`` interface).
    program:
        The per-node program to execute.
    seed:
        Seed for the per-node random streams.  Each node receives its own
        deterministic ``random.Random``, so results are reproducible and
        independent of node iteration order.

    Each node's :class:`ProgramContext` is created once and reused every
    round (its ``round_index`` is updated in place) — programs may rely on
    the context identity being stable across rounds.  Consequently
    ``ctx.rng`` is one continuously-advancing stream per node: draws in
    ``init`` and successive rounds never repeat.  (Before contexts were
    reused, the per-node rng was re-seeded identically every round, so a
    program drawing in ``step`` saw the same sequence each round — almost
    certainly never what an algorithm wants, but note the change if
    comparing randomized node-program outputs across versions.)

    Large-n fast path (see DESIGN.md "fast-path invariants"): per-node
    bookkeeping — states, contexts, pending inboxes, the active set — is
    stored in lists indexed by the topology's contiguous node index, and the
    active set is maintained *incrementally*: a node leaves it when it halts
    and is never rescanned.  ``NodeState.halt`` is therefore final — a
    program must not clear ``state.halted`` by hand to resurrect a node (no
    in-repo program ever did; the previous implementation rescanned all n
    nodes every round, which happened to tolerate it).

    Inbox and outbox dicts are pooled across rounds: each slot owns one inbox
    dict that is cleared and refilled between rounds, and one outgoing-message
    dict is reused for every ``exchange`` call.  The per-round contract is
    unchanged — ``step`` always receives a **private mutable dict** (shared
    with no other node) holding exactly the messages delivered last round —
    but the dict is only guaranteed to hold those messages *for the duration
    of the call*: a program that wants to keep an inbox across rounds must
    copy it.
    """

    def __init__(self, network: Network, program: NodeProgram, seed: int = 0):
        self.network = network
        self.program = program
        self.rng_stream = RngStream(seed)
        topology = network.topology
        nodes = topology.nodes
        self._nodes = nodes
        self._slot_of = topology.node_index
        self._state_list: List[NodeState] = [NodeState(node=v) for v in nodes]
        self._context_list: List[ProgramContext] = [
            ProgramContext(
                network=network,
                node=v,
                state=state,
                rng=self.rng_stream.for_node(v),
                round_index=0,
            )
            for v, state in zip(nodes, self._state_list)
        ]
        self._inbox_list: List[Dict[Node, Any]] = [{} for _ in nodes]
        self.states: Dict[Node, NodeState] = dict(zip(nodes, self._state_list))
        self._contexts: Dict[Node, ProgramContext] = dict(
            zip(nodes, self._context_list)
        )
        self._round_index = 0
        self._outgoing: Dict[tuple, Any] = {}
        for ctx in self._context_list:
            self.program.init(ctx)
        # Incremental active set: slots leave on halt (a program may already
        # halt in init), and are never rescanned.
        self._active: List[int] = [
            i for i, state in enumerate(self._state_list) if not state.halted
        ]

    def _context(self, node: Node) -> ProgramContext:
        ctx = self._contexts[node]
        ctx.round_index = self._round_index
        return ctx

    def _apply_crashes(self) -> None:
        """Halt nodes the network's fault plan crashes before this round.

        Crash rounds are counted on the ledger's clock — the same clock the
        fault transport uses to suppress the crashed nodes' messages — so a
        node scheduled to crash "at round r" neither steps nor communicates
        from the r-th recorded round on.  Halting is final, exactly like a
        voluntary halt; the node's mail stops being collected and its output
        is whatever it had computed so far.
        """
        plan = getattr(self.network.transport, "fault_plan", None)
        if plan is None or not plan.crash:
            return
        crashed = plan.crashed_by(self.network.ledger.rounds)
        if not crashed:
            return
        state_list = self._state_list
        slot_of = self._slot_of
        changed = False
        for v in crashed:
            i = slot_of.get(v)
            if i is not None and not state_list[i].halted:
                state_list[i].halted = True
                changed = True
        if changed:
            self._active = [i for i in self._active if not state_list[i].halted]

    def step(self, label: Optional[str] = None) -> bool:
        """Execute one synchronous round.  Returns True if any node is active."""
        active = self._active
        if not active:
            return False
        self._apply_crashes()
        active = self._active
        if not active:
            return False
        nodes = self._nodes
        context_list = self._context_list
        inbox_list = self._inbox_list
        state_list = self._state_list
        program_step = self.program.step
        round_index = self._round_index
        tracer = self.network.tracer
        if tracer.enabled:
            # Observation only: counts as of the round about to execute.
            tracer.note_nodes(len(active), len(nodes))
        outgoing = self._outgoing
        outgoing.clear()
        for i in active:
            ctx = context_list[i]
            ctx.round_index = round_index
            # Programs always get a private mutable dict (the historical
            # contract); the pooled per-slot dict holds this round's mail.
            sends = program_step(ctx, inbox_list[i])
            if not sends:
                continue
            v = nodes[i]
            for receiver, payload in sends.items():
                outgoing[(v, receiver)] = payload
        delivered = self.network.exchange(
            outgoing, label=label or type(self.program).__name__
        )
        # Drop freshly-halted slots from the active set (no O(n) rescan), and
        # recycle every pooled inbox that was readable this round.
        self._active = [i for i in active if not state_list[i].halted]
        for i in active:
            box = inbox_list[i]
            if box:
                box.clear()
        # Refill from this round's deliveries.  Mail for an already-halted
        # receiver is dropped: it could never be read (the node will not step
        # again), and leaving it would accrete stale entries in a pooled box.
        slot_of = self._slot_of
        for (sender, receiver), payload in delivered.items():
            i = slot_of[receiver]
            if not state_list[i].halted:
                inbox_list[i][sender] = payload
        self._round_index += 1
        if tracer.wants_state:
            # Observation only: hash the post-step solver-visible state of
            # every node (halted ones included — their frozen state is part
            # of the global picture a digest must cover).
            tracer.note_state(self.state_digest_items())
        return bool(self._active)

    def state_digest_items(self):
        """Yield ``(node, entry_hash, halted)`` for every node.

        The forensics state-digest hook: entry hashes cover the canonical
        encoding of each node's full solver-visible surface — ``halted``,
        ``output`` and ``memory`` (RNG-derived fields included).  Pure
        reader; consumes no randomness.
        """
        from repro.obs.forensics.digest import node_state_entry

        for v, state in zip(self._nodes, self._state_list):
            yield (v, node_state_entry(v, state), state.halted)

    def run(self, max_rounds: int = 10_000, label: Optional[str] = None) -> SimulationResult:
        """Run until every node halts or ``max_rounds`` rounds have elapsed."""
        for _ in range(max_rounds):
            if not self.step(label=label):
                break
        outputs = {v: self.program.finish(self._context(v)) for v in self._nodes}
        return SimulationResult(
            rounds=self._round_index,
            outputs=outputs,
            states=dict(self.states),
            halted=not self._active,
        )
