"""Round-level tracing: the observation side of the communication engine.

The paper's guarantees are per-round statements, so the trace layer records
what every synchronous round *cost* — bits, messages, the per-edge maximum,
wall-clock time, how many nodes were still active, fault-counter movement —
and, on request, a chained determinism digest of what the round *did*.

:class:`RoundTracer` is the one tracer: one event per round from the
network ledger's ``record_round`` seam, periodic resource samples, and with
``digest=True`` the chain fields of :mod:`repro.obs.forensics.digest` on the
same round events.  An untraced :class:`~repro.congest.network.Network`
holds ``tracer=None``: no observer is installed on the ledger, and hot paths
test ``tracer is not None`` (payload hooks: ``tracer.digest``) before any
call, so an untraced run executes byte-for-byte the code it always did.

**The observation-only contract** (pinned by ``tests/test_obs.py`` and
``tests/test_forensics.py``): a tracer consumes no randomness, never mutates
ledgers, deliveries, or node state, and a traced run is byte-identical to an
untraced one on every backend, fault-free and under fault plans.  Tracers
may read clocks and process counters — those land in the machine-dependent
event fields, which :func:`repro.obs.artifacts.deterministic_events` drops
from the byte-reproducible ``DIGEST_*.jsonl`` view of a run.

A tracer traces **one run**: attach it to one network, read ``events`` (or
write them with :mod:`repro.obs.artifacts`) after :meth:`RoundTracer.close`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.ledger import phase_of
from repro.obs.forensics.digest import (
    CHAIN_INIT,
    MultisetDigest,
    delivery_entry_hashes,
    flatten_exchange,
    fold_chain,
    hex16,
    label_key,
    value_entry_hash,
)
from repro.obs.sampler import ResourceSampler

#: Run-event schema identifier (bump when the event shapes change).
RUN_SCHEMA = "repro-run/1"

#: Minimum seconds between resource samples.
SAMPLE_EVERY_S = 1.0


class RoundTracer:
    """Capture one event per synchronous round, plus resource samples.

    Parameters
    ----------
    meta:
        Extra key/value pairs merged into the header event (scenario name,
        trial index, embedded scenario spec for the bisection re-run, ...).
    digest:
        Fold a chained digest over delivered payload bytes and the ledger
        counters, and add it to every round event.  The network hands
        payloads to the ``note_*`` hooks only when this is set, and the
        columnar similarity kernel declines (it never materializes the
        payloads a digest hashes); a trace-only tracer leaves the hooks off
        and the kernel running.
    fine_rounds:
        Optional inclusive ``(lo, hi)`` round window for a digesting tracer:
        rounds inside it emit an extra ``fine`` event with per-receiver
        inbox digests — the data the bisection debugger uses to name the
        first divergent node.  Outside the window the per-round cost stays
        one multiset sum.
    clock:
        Time source (``time.perf_counter`` by default; injectable for
        deterministic tests).

    Event shapes (schema :data:`RUN_SCHEMA`; plain JSON-serializable dicts,
    one JSONL line each):

    * ``header`` — schema, topology size, mode/backend/budget, fault plan,
      ``fine_rounds`` when set, plus ``meta``.
    * ``round`` — ``round`` (1-based ledger index), ``label``, ``phase``
      (label prefix before ``":"``), ``messages``, ``bits``,
      ``max_edge_bits``, ``wall_s`` (time since the previous round event —
      i.e. including the compute that produced the round); optionally
      ``active``/``owned`` (when a driver reported them) and ``faults``
      (nonzero fault-counter deltas since the previous round).  With
      ``digest``: ``payload`` (multiset hex) + ``payload_n`` and ``chain``
      — the running chained digest through this round.
    * ``fine`` — per-receiver ``inbox`` digests for one in-window round
      (keys are ``repr(node)``).
    * ``sample`` — ``round``, ``wall_s`` since attach, ``rss_mb``,
      ``cpu_s``; at most one per :data:`SAMPLE_EVERY_S`, taken on round
      boundaries (no background thread, so an idle tracer costs nothing).
    * ``end`` — final ledger aggregates, total ``wall_s``, final resource
      sample, final fault counters when a fault plan ran, and the final
      ``chain`` with ``digest``.

    The chain folds round identity, counters and the payload multiset
    digest — never driver context such as ``active``/``owned``.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None,
                 digest: bool = False,
                 fine_rounds: Optional[Tuple[int, int]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.events: List[Dict[str, Any]] = []
        self.meta = dict(meta or {})
        self.digest = bool(digest)
        if fine_rounds is not None:
            lo, hi = fine_rounds
            fine_rounds = (int(lo), int(hi))
        self.fine_rounds = fine_rounds
        self._sampler = ResourceSampler()
        self._clock = clock
        self._network = None
        self._closed = False
        self._started: Optional[float] = None
        self._last_ts: Optional[float] = None
        self._last_sample_ts: Optional[float] = None
        self._nodes: Optional[Tuple[int, int]] = None
        self._fault_prev: Optional[Dict[str, int]] = None
        self._pending: Optional[Dict[str, Any]] = None
        self._chain = CHAIN_INIT
        self._payload = MultisetDigest()
        self._fine_inbox: Dict[Any, MultisetDigest] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, network) -> None:
        """Start observing ``network`` (install the ledger round observer)."""
        if self._network is network:
            return  # idempotent: a driver re-threading the run's own tracer
        if self._network is not None:
            raise RuntimeError(
                "a RoundTracer traces exactly one run; build a fresh tracer "
                "instead of re-attaching this one to another network"
            )
        if self._closed:
            raise RuntimeError("tracer is closed; build a fresh one per run")
        ledger = network.ledger
        if ledger.observer is not None:
            raise RuntimeError(
                "this network's ledger already has a round observer; one "
                "RoundTracer per run carries both the trace and the digest"
            )
        self._network = network
        ledger.observer = self._on_round
        now = self._clock()
        self._started = self._last_ts = self._last_sample_ts = now
        header: Dict[str, Any] = {
            "type": "header",
            "schema": RUN_SCHEMA,
            "n": network.number_of_nodes,
            "m": network.number_of_edges,
            "mode": network.mode,
            "backend": network.backend,
            "bandwidth_bits": network.bandwidth_bits,
        }
        if self.fine_rounds is not None:
            header["fine_rounds"] = list(self.fine_rounds)
        plan = getattr(network.transport, "fault_plan", None)
        if plan is not None:
            header["faults"] = plan.canonical()
            self._fault_prev = dict.fromkeys(
                network.transport.fault_stats.as_dict(), 0
            )
        header.update(self.meta)
        self.events.append(header)

    def close(self) -> None:
        """Detach from the ledger and append the ``end`` event (idempotent)."""
        if self._closed:
            return
        self._closed = True
        network = self._network
        if network is None:
            return
        self._finalize_round()
        ledger = network.ledger
        ledger.observer = None
        now = self._clock()
        end: Dict[str, Any] = {
            "type": "end",
            "rounds": ledger.rounds,
            "total_bits": ledger.total_bits,
            "total_messages": ledger.total_messages,
            "max_edge_bits": ledger.max_edge_bits,
            "wall_s": round(now - self._started, 6),
        }
        end.update(self._sampler.sample())
        stats = network.fault_stats
        if stats is not None:
            end["faults"] = stats
        if self.digest:
            end["chain"] = hex16(self._chain)
        self.events.append(end)

    # ----------------------------------------------------------- driver hooks
    def note_nodes(self, active: int, owned: int) -> None:
        """Driver hook: node counts as of the round about to execute."""
        self._nodes = (int(active), int(owned))

    def _fine_active(self) -> bool:
        if self.fine_rounds is None or self._pending is None:
            return False
        lo, hi = self.fine_rounds
        return lo <= self._pending["round"] <= hi

    # ---------------------------------------------------------- payload hooks
    def note_edges(self, senders: Sequence[Any], receivers: Sequence[Any],
                   payloads: Sequence[Any]) -> None:
        """Payload hook: one round's deliveries as aligned label columns."""
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
        """Payload hook: one round's delivered ``{(u, v): payload}`` mapping."""
        if delivered:
            self.note_edges(*flatten_exchange(delivered))

    def note_values(self, values) -> None:
        """Payload hook: a ``broadcast_discard`` round's sent values."""
        # Sent values, hashed per sender.  A discarded delivery cannot affect
        # any node's downstream state, so sent-side hashing is the honest
        # (and backend-neutral) digest for the discard primitive.
        for sender, payload in values.items():
            self._payload.add(value_entry_hash(sender, payload))

    # ---------------------------------------------------------- round events
    def _on_round(self, index: int, label: str, message_count: int,
                  total_bits: int, max_edge_bits: int) -> None:
        self._finalize_round()
        now = self._clock()
        event: Dict[str, Any] = {
            "type": "round",
            "round": index,
            "label": label,
            "phase": phase_of(label),
            "messages": message_count,
            "bits": total_bits,
            "max_edge_bits": max_edge_bits,
            "wall_s": round(now - self._last_ts, 6),
        }
        if self._nodes is not None:
            event["active"], event["owned"] = self._nodes
        if self._fault_prev is not None:
            current = self._network.transport.fault_stats.as_dict()
            deltas = {
                key: current[key] - self._fault_prev.get(key, 0)
                for key in current
                if current[key] != self._fault_prev.get(key, 0)
            }
            if deltas:
                event["faults"] = deltas
            self._fault_prev = current
        self._pending = event
        self._last_ts = now

    def _finalize_round(self) -> None:
        """Emit the pending round's events, folding its digest into the chain.

        Deferred until the next round (or ``close``) because the payload
        hooks fire *after* the ledger observer for the round they belong to:
        the transport records the round, then the network hands the
        delivered payloads to the tracer.
        """
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        if self.digest:
            payload = self._payload
            # The repro-run/1 encoding ends each fold with three words that
            # every solver run folds as zeros; folding them as constants
            # keeps every recorded chain valid.
            self._chain = fold_chain(
                self._chain,
                pending["round"],
                label_key(pending["label"]),
                pending["messages"],
                pending["bits"],
                pending["max_edge_bits"],
                payload.value,
                payload.count,
                0, 0, 0,
            )
            pending["payload"] = hex16(payload.value)
            pending["payload_n"] = payload.count
            pending["chain"] = hex16(self._chain)
            payload.reset()
        self.events.append(pending)
        if self.fine_rounds is not None:
            lo, hi = self.fine_rounds
            if lo <= pending["round"] <= hi:
                self.events.append({
                    "type": "fine",
                    "round": pending["round"],
                    "inbox": {
                        repr(node): [hex16(acc.value), acc.count]
                        for node, acc in self._fine_inbox.items()
                    },
                })
            self._fine_inbox = {}
        if self._last_ts - self._last_sample_ts >= SAMPLE_EVERY_S:
            sample: Dict[str, Any] = {
                "type": "sample",
                "round": pending["round"],
                "wall_s": round(self._last_ts - self._started, 6),
            }
            sample.update(self._sampler.sample())
            self.events.append(sample)
            self._last_sample_ts = self._last_ts
