"""The digest tracer: chained per-round state digests on the tracer seam.

:class:`DigestTracer` implements the :class:`repro.obs.tracer.Tracer`
protocol and folds, per recorded round, a chained digest over

* delivered message bytes (exchange results, broadcast inboxes, and
  ``broadcast_discard`` sent values),
* per-node solver-visible state and liveness (via the simulator's
  state-digest hook), and
* the ledger's round counters (messages, bits, per-edge maximum),

using the commutative multiset accumulators of
:mod:`repro.obs.forensics.digest`.  The stream is **backend-neutral by
construction**: multiset sums ignore delivery order and the header
deliberately omits backend/ledger knobs — so two runs of the same workload
produce byte-identical ``DIGEST_*.jsonl`` streams on dict and columnar and
for any trial-worker count.  That is what makes a digest diff a
*divergence* signal rather than a configuration echo.

Observation-only, like every tracer: no RNG is consumed, nothing is
mutated, and no wall-clock readings are taken (a digest stream must be
byte-reproducible, so even timestamps are out).

**Fine mode** (``fine_rounds=(lo, hi)``) additionally records, for rounds
inside the window only, per-receiver inbox digests and per-node state entry
hashes — the data the bisection debugger uses to name the first divergent
node.  Outside the window the per-round cost stays one multiset sum.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.forensics.digest import (
    CHAIN_INIT,
    DIGEST_SCHEMA,
    MultisetDigest,
    delivery_entry_hashes,
    flatten_exchange,
    flatten_inboxes,
    fold_chain,
    hex16,
    label_key,
    value_entry_hash,
)
from repro.obs.tracer import (
    Tracer,
    add_round_observer,
    remove_round_observer,
)

class DigestTracer(Tracer):
    """Fold a chained determinism digest over every recorded round.

    Parameters
    ----------
    meta:
        Extra key/value pairs merged into the header event (scenario name,
        trial index, embedded scenario spec for the bisection re-run, ...).
        Keep perf knobs (backend, ledger, worker count) out of it —
        the stream's value is that those must *not* change it.
    fine_rounds:
        Optional inclusive ``(lo, hi)`` round window; rounds inside it emit
        an extra ``fine`` event with per-node detail (see module docstring).

    Event shapes (JSON-serializable dicts, one JSONL line each):

    * ``header`` — schema, topology size, mode, bandwidth budget, fault
      plan, plus ``meta``.
    * ``round`` — ``round`` (1-based ledger index), ``label``, ``phase``,
      the ledger counters, ``payload`` (multiset hex) + ``payload_n``,
      ``state``/``state_n``/``halted`` when state was observed, and
      ``chain`` — the running chained digest through this round.
    * ``fine`` — per-receiver ``inbox`` digests and per-node ``state`` /
      ``halted`` maps for one in-window round (keys are ``repr(node)``).
    * ``end`` — final ledger aggregates and the final ``chain``.
    """

    enabled = True
    wants_payloads = True
    wants_state = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None,
                 fine_rounds: Optional[Tuple[int, int]] = None):
        self.events: List[Dict[str, Any]] = []
        self.meta = dict(meta or {})
        if fine_rounds is not None:
            lo, hi = fine_rounds
            fine_rounds = (int(lo), int(hi))
        self.fine_rounds = fine_rounds
        self._network = None
        self._closed = False
        self._chain = CHAIN_INIT
        self._pending: Optional[Dict[str, Any]] = None
        self._payload = MultisetDigest()
        self._state = MultisetDigest()
        self._halted = 0
        self._state_seen = False
        self._fine_inbox: Dict[Any, MultisetDigest] = {}
        self._fine_state: Dict[Any, Tuple[int, bool]] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, network) -> None:
        if self._network is network:
            return  # idempotent: a driver re-threading the run's own tracer
        if self._network is not None:
            raise RuntimeError(
                "a DigestTracer digests exactly one run; build a fresh "
                "tracer instead of re-attaching this one to another network"
            )
        if self._closed:
            raise RuntimeError("tracer is closed; build a fresh one per run")
        self._network = network
        add_round_observer(network.ledger, self._on_round)
        # No backend/ledger fields: the digest stream must be
        # byte-identical across them (that equivalence is the product).
        header: Dict[str, Any] = {
            "type": "header",
            "schema": DIGEST_SCHEMA,
            "n": network.number_of_nodes,
            "m": network.number_of_edges,
            "mode": network.mode,
            "bandwidth_bits": network.bandwidth_bits,
        }
        if self.fine_rounds is not None:
            header["fine_rounds"] = list(self.fine_rounds)
        plan = getattr(network.transport, "fault_plan", None)
        if plan is not None:
            header["faults"] = plan.canonical()
        header.update(self.meta)
        self.events.append(header)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        network = self._network
        if network is None:
            return
        self._finalize_round()
        remove_round_observer(network.ledger, self._on_round)
        ledger = network.ledger
        self.events.append({
            "type": "end",
            "rounds": ledger.rounds,
            "total_bits": ledger.total_bits,
            "total_messages": ledger.total_messages,
            "max_edge_bits": ledger.max_edge_bits,
            "chain": hex16(self._chain),
        })

    @property
    def final_digest(self) -> str:
        """The running chain as hex — the run's ``state_digest`` once closed."""
        return hex16(self._chain)

    # note_nodes stays the inherited no-op on purpose: active counts are
    # driver context, not run identity (liveness reaches the chain through
    # the halted set of the state digest).

    def _fine_active(self) -> bool:
        if self.fine_rounds is None or self._pending is None:
            return False
        lo, hi = self.fine_rounds
        return lo <= self._pending["round"] <= hi

    # ---------------------------------------------------------- payload hooks
    def _note_edges(self, senders: Sequence[Any], receivers: Sequence[Any],
                    payloads: Sequence[Any]) -> None:
        if not payloads:
            return
        hashes = delivery_entry_hashes(senders, receivers, payloads)
        self._payload.add_many(hashes)
        if self._fine_active():
            fine = self._fine_inbox
            for receiver, entry in zip(receivers, hashes):
                acc = fine.get(receiver)
                if acc is None:
                    acc = fine[receiver] = MultisetDigest()
                acc.add(entry)

    def note_exchange(self, delivered) -> None:
        if delivered:
            self._note_edges(*flatten_exchange(delivered))

    def note_inboxes(self, inboxes) -> None:
        if inboxes:
            self._note_edges(*flatten_inboxes(inboxes))

    def note_values(self, values) -> None:
        # Sent values, hashed per sender.  A discarded inbox cannot affect
        # any node's downstream state, so sent-side hashing is the honest
        # (and backend-neutral) digest for the discard primitive.
        for sender, payload in values.items():
            self._payload.add(value_entry_hash(sender, payload))

    # ------------------------------------------------------------ state hooks
    def note_state(self, items) -> None:
        acc = self._state
        halted = self._halted
        if self._fine_active():
            fine = self._fine_state
            for node, entry, is_halted in items:
                acc.add(entry)
                if is_halted:
                    halted += 1
                fine[node] = (entry, bool(is_halted))
        else:
            for node, entry, is_halted in items:
                acc.add(entry)
                if is_halted:
                    halted += 1
        self._halted = halted
        self._state_seen = True

    # ---------------------------------------------------------- round events
    def _on_round(self, index: int, label: str, message_count: int,
                  total_bits: int, max_edge_bits: int) -> None:
        self._finalize_round()
        pending: Dict[str, Any] = {
            "type": "round",
            "round": index,
            "label": label,
            "phase": label.split(":", 1)[0],
            "messages": message_count,
            "bits": total_bits,
            "max_edge_bits": max_edge_bits,
        }
        self._pending = pending

    def _finalize_round(self) -> None:
        """Fold the accumulated round into the chain and emit its events.

        Deferred until the next round (or ``close``) because payload and
        state hooks fire *after* the ledger observer for the round they
        belong to: the transport records the round, then the network hands
        the delivered payloads to the tracer, then the simulator reports
        post-step state.
        """
        pending = self._pending
        if pending is None:
            return
        payload, state = self._payload, self._state
        # Chain over round identity, counters, and the multiset digests —
        # not over driver context such as active/owned node counts.
        self._chain = fold_chain(
            self._chain,
            pending["round"],
            label_key(pending["label"]),
            pending["messages"],
            pending["bits"],
            pending["max_edge_bits"],
            payload.value,
            payload.count,
            state.value,
            state.count,
            self._halted,
        )
        pending["payload"] = hex16(payload.value)
        pending["payload_n"] = payload.count
        if self._state_seen:
            pending["state"] = hex16(state.value)
            pending["state_n"] = state.count
            pending["halted"] = self._halted
        pending["chain"] = hex16(self._chain)
        self.events.append(pending)
        if self.fine_rounds is not None:
            lo, hi = self.fine_rounds
            if lo <= pending["round"] <= hi:
                fine: Dict[str, Any] = {
                    "type": "fine",
                    "round": pending["round"],
                    "inbox": {
                        repr(node): [hex16(acc.value), acc.count]
                        for node, acc in self._fine_inbox.items()
                    },
                }
                if self._fine_state:
                    fine["state"] = {
                        repr(node): hex16(entry)
                        for node, (entry, _) in self._fine_state.items()
                    }
                    fine["halted"] = {
                        repr(node): halted
                        for node, (_, halted) in self._fine_state.items()
                    }
                self.events.append(fine)
        payload.reset()
        state.reset()
        self._halted = 0
        self._state_seen = False
        self._fine_inbox = {}
        self._fine_state = {}
        self._pending = None


__all__ = ["DigestTracer"]
