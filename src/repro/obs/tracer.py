"""Round-level tracers: the observation side of the communication engine.

The paper's guarantees are per-round statements, so the trace layer records
what every synchronous round *cost*: bits, messages, the per-edge maximum,
wall-clock time, how many nodes were still active, and fault-counter
movement.

Three pieces:

* :class:`Tracer` — the protocol.  Every hook is a no-op here, and
  ``enabled = False`` lets hot paths skip even the call with one attribute
  check.
* :class:`NullTracer` / :data:`NULL_TRACER` — the zero-overhead default
  every :class:`~repro.congest.network.Network` carries.  No observer is
  installed on the ledger, so an untraced run executes byte-for-byte the
  code it always did.
* :class:`RoundTracer` — captures one event dict per round by observing the
  network ledger's ``record_round`` seam, plus periodic resource samples and
  optional heartbeat lines.

**The observation-only contract** (pinned by ``tests/test_obs.py``): a
tracer consumes no randomness, never mutates ledgers, inboxes, or node
state, and a traced run is byte-identical to an untraced one on every
backend, fault-free and under fault plans.  Tracers may
read clocks and process counters — those land in the trace, which is a
diagnostic artifact, never in the deterministic aggregates.

A tracer traces **one run**: attach it to one network, read ``events`` (or
write them with :func:`repro.obs.artifacts.write_trace`) after
:meth:`RoundTracer.close`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.heartbeat import Heartbeat
from repro.obs.sampler import ResourceSampler

#: Trace event schema identifier (bump when the event shapes change).
TRACE_SCHEMA = "repro-trace/1"


class Tracer:
    """Protocol for run observers; every hook is a no-op by default.

    ``enabled`` is a class attribute so drivers can guard per-round hook
    calls with a single attribute check (``if tracer.enabled: ...``) instead
    of a method call — that is what makes the :class:`NullTracer` default
    genuinely free on hot paths.  ``wants_payloads`` and ``wants_state``
    guard the forensics hooks the same way: the network only walks delivered
    payloads (and the simulator only walks node states) for tracers that
    opted in, so tracing rounds stays free of per-message work.
    """

    enabled = False
    #: Opt-in: receive delivered payloads via the ``note_exchange`` /
    #: ``note_inboxes`` / ``note_values`` hooks after every primitive.
    wants_payloads = False
    #: Opt-in: receive per-node solver-visible state via ``note_state``
    #: at the end of every simulator step.
    wants_state = False

    def attach(self, network) -> None:
        """Start observing ``network`` (install the ledger round observer)."""

    def note_nodes(self, active: int, owned: int) -> None:
        """Driver hook: node counts as of the round about to execute."""

    def note_exchange(self, delivered) -> None:
        """Payload hook: one round's delivered ``{(u, v): payload}`` mapping."""

    def note_inboxes(self, inboxes) -> None:
        """Payload hook: one round's delivered ``inbox[v][u]`` mapping."""

    def note_values(self, values) -> None:
        """Payload hook: a ``broadcast_discard`` round's sent values."""

    def note_state(self, items) -> None:
        """State hook: iterable of ``(node, entry_hash, halted)`` post-step."""

    def close(self) -> None:
        """Stop observing and finalize (idempotent)."""


class NullTracer(Tracer):
    """The zero-overhead default: observes nothing, installs nothing."""


#: Shared singleton — every untraced network points here, allocating nothing.
NULL_TRACER = NullTracer()


class _ObserverMux:
    """Fan one ledger ``observer`` slot out to several round observers.

    The ledger keeps its single-callable seam (one attribute check per
    round); composition lives here.  Callbacks fire in attach order, which
    is part of the observation-only contract's determinism: two tracers on
    one ledger see the same interleaving on every run.
    """

    __slots__ = ("callbacks",)

    def __init__(self, callbacks) -> None:
        self.callbacks = list(callbacks)

    def __call__(self, index: int, label: str, message_count: int,
                 total_bits: int, max_edge_bits: int) -> None:
        for callback in self.callbacks:
            callback(index, label, message_count, total_bits, max_edge_bits)


def add_round_observer(ledger, callback) -> None:
    """Install ``callback`` as a round observer, composing with any existing one.

    First observer goes straight into the ledger slot (zero indirection for
    the common single-tracer run); a second observer upgrades the slot to a
    :class:`_ObserverMux` transparently.
    """
    current = ledger.observer
    if current is None:
        ledger.observer = callback
    elif isinstance(current, _ObserverMux):
        current.callbacks.append(callback)
    else:
        ledger.observer = _ObserverMux([current, callback])


def remove_round_observer(ledger, callback) -> None:
    """Detach ``callback``, unwrapping the mux when one observer remains.

    Bound-method access creates a fresh object each time, so membership is
    by ``==`` (same function + same instance), never ``is``.  Removing a
    callback that is not installed is a no-op, which keeps tracer ``close``
    idempotent.
    """
    current = ledger.observer
    if current is None:
        return
    if isinstance(current, _ObserverMux):
        try:
            current.callbacks.remove(callback)
        except ValueError:
            return
        if len(current.callbacks) == 1:
            ledger.observer = current.callbacks[0]
        elif not current.callbacks:
            ledger.observer = None
    elif current == callback:
        ledger.observer = None


class CompositeTracer(Tracer):
    """Fan every tracer hook out to several tracers on one run.

    ``enabled`` / ``wants_payloads`` / ``wants_state`` are the ORs of the
    members', so drivers guard hooks exactly as for a single tracer; payload
    and state hooks are forwarded only to members that opted in.
    """

    def __init__(self, tracers) -> None:
        self.tracers = [t for t in tracers if t is not None and t.enabled]
        self.enabled = bool(self.tracers)
        self.wants_payloads = any(t.wants_payloads for t in self.tracers)
        self.wants_state = any(t.wants_state for t in self.tracers)

    def attach(self, network) -> None:
        for tracer in self.tracers:
            tracer.attach(network)

    def note_nodes(self, active: int, owned: int) -> None:
        for tracer in self.tracers:
            tracer.note_nodes(active, owned)

    def note_exchange(self, delivered) -> None:
        for tracer in self.tracers:
            if tracer.wants_payloads:
                tracer.note_exchange(delivered)

    def note_inboxes(self, inboxes) -> None:
        for tracer in self.tracers:
            if tracer.wants_payloads:
                tracer.note_inboxes(inboxes)

    def note_values(self, values) -> None:
        for tracer in self.tracers:
            if tracer.wants_payloads:
                tracer.note_values(values)

    def note_state(self, items) -> None:
        wanting = [t for t in self.tracers if t.wants_state]
        if not wanting:
            return
        if len(wanting) > 1:
            items = list(items)  # the hook may receive a one-shot generator
        for tracer in wanting:
            tracer.note_state(items)

    def close(self) -> None:
        for tracer in self.tracers:
            tracer.close()


class RoundTracer(Tracer):
    """Capture one event per synchronous round, plus samples and heartbeats.

    Parameters
    ----------
    meta:
        Extra key/value pairs merged into the header event (scenario name,
        trial index, solver — whatever identifies the run in its artifact).
    sample_every_s:
        Minimum seconds between resource samples (RSS, CPU).  Samples are
        taken opportunistically on round boundaries — no background thread,
        so an idle tracer costs nothing.  ``None`` disables sampling.
    heartbeat:
        Optional :class:`~repro.obs.heartbeat.Heartbeat`; when given, a
        progress line (round, phase, bits, active nodes, RSS) is emitted at
        most once per its interval.
    clock:
        Time source (``time.perf_counter`` by default; injectable for
        deterministic tests).

    Event shapes (all plain JSON-serializable dicts, one JSONL line each):

    * ``header`` — schema, topology size, mode/backend/budget, fault plan,
      plus ``meta``.
    * ``round`` — ``round`` (1-based ledger index), ``label``, ``phase``
      (label prefix before ``":"``), ``messages``, ``bits``,
      ``max_edge_bits``, ``wall_s`` (time since the previous round event —
      i.e. including the compute that produced the round); optionally
      ``active``/``owned`` (when a driver reported them) and ``faults``
      (nonzero fault-counter deltas since the previous round).
    * ``sample`` — ``round``, ``wall_s`` since attach, ``rss_mb``, ``cpu_s``.
    * ``end`` — final ledger aggregates, total ``wall_s``, final resource
      sample, and final fault counters when a fault plan ran.
    """

    enabled = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None,
                 sample_every_s: Optional[float] = 1.0,
                 heartbeat: Optional[Heartbeat] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.events: List[Dict[str, Any]] = []
        self.meta = dict(meta or {})
        self._sampler = ResourceSampler()
        self._sample_every_s = sample_every_s
        self._heartbeat = heartbeat
        self._clock = clock
        self._network = None
        self._started: Optional[float] = None
        self._last_ts: Optional[float] = None
        self._last_sample_ts: Optional[float] = None
        self._nodes: Optional[Tuple[int, int]] = None
        self._fault_prev: Optional[Dict[str, int]] = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def attach(self, network) -> None:
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
        self._network = network
        add_round_observer(ledger, self._on_round)
        now = self._clock()
        self._started = self._last_ts = self._last_sample_ts = now
        header: Dict[str, Any] = {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "n": network.number_of_nodes,
            "m": network.number_of_edges,
            "mode": network.mode,
            "backend": network.backend,
            "bandwidth_bits": network.bandwidth_bits,
            "ledger": type(ledger).__name__,
        }
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
        remove_round_observer(network.ledger, self._on_round)
        now = self._clock()
        ledger = network.ledger
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
        self.events.append(end)

    # ----------------------------------------------------------- driver hooks
    def note_nodes(self, active: int, owned: int) -> None:
        self._nodes = (int(active), int(owned))

    # ---------------------------------------------------------- round events
    def _on_round(self, index: int, label: str, message_count: int,
                  total_bits: int, max_edge_bits: int) -> None:
        now = self._clock()
        event: Dict[str, Any] = {
            "type": "round",
            "round": index,
            "label": label,
            "phase": label.split(":", 1)[0],
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
        self.events.append(event)
        self._last_ts = now
        if (
            self._sample_every_s is not None
            and now - self._last_sample_ts >= self._sample_every_s
        ):
            sample: Dict[str, Any] = {
                "type": "sample",
                "round": index,
                "wall_s": round(now - self._started, 6),
            }
            sample.update(self._sampler.sample())
            self.events.append(sample)
            self._last_sample_ts = now
        if self._heartbeat is not None:
            self._heartbeat.maybe_beat(lambda: self._heartbeat_line(event, now))

    def _heartbeat_line(self, event: Dict[str, Any], now: float) -> str:
        ledger = self._network.ledger
        parts = [
            f"[trace] round {event['round']} {event['phase'] or '-'}:",
            f"{ledger.total_bits} bits",
            f"{ledger.total_messages} msgs",
        ]
        if "active" in event:
            parts.append(f"active {event['active']}/{event['owned']}")
        sample = self._sampler.sample()
        parts.append(f"rss {sample['rss_mb']}MiB")
        parts.append(f"{round(now - self._started, 1)}s")
        return " ".join(parts)


def make_tracer(trace: bool, meta: Optional[Dict[str, Any]] = None,
                heartbeat: Optional[Heartbeat] = None) -> Optional[RoundTracer]:
    """Build a :class:`RoundTracer` when ``trace`` is set, else ``None``.

    The ``None`` return (rather than a :class:`NullTracer`) lets callers pass
    the result straight to ``Network(tracer=...)``, whose default path stays
    allocation-free.
    """
    if not trace:
        return None
    return RoundTracer(meta=meta, heartbeat=heartbeat)
