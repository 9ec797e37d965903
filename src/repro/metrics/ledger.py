"""Bandwidth ledgers and experiment-level accounting.

The ledger is the accounting half of the communication engine (see
DESIGN.md): every transport backend reports each synchronous round to a
ledger via :meth:`Ledger.record_round`, and the ledger aggregates rounds,
bits and messages.  Two implementations are provided:

* :class:`RecordingLedger` (the default, historically named
  ``BandwidthLedger``) keeps a full per-round :class:`RoundRecord` history —
  what the benchmarks and the phase breakdowns consume;
* :class:`CounterLedger` keeps only the aggregate counters plus per-label
  round counts, for big runs where a million :class:`RoundRecord` objects
  would dominate memory.

Both report identical headline numbers (``rounds``, ``total_bits``,
``total_messages``, ``max_edge_bits``) for the same execution; the
paper-fidelity invariant is that swapping the ledger never changes what is
charged, only what is remembered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


@dataclass
class RoundRecord:
    """Accounting for a single synchronous round."""

    index: int
    label: str
    message_count: int
    total_bits: int
    max_edge_bits: int


#: Round observer signature: ``(index, label, message_count, total_bits,
#: max_edge_bits)``, called after the ledger aggregates are updated.
RoundObserver = Callable[[int, str, int, int, int], None]

#: The one (immutable, shared) empty history every :class:`CounterLedger`
#: reports.  A tuple, so a caller that tries to mutate what it wrongly
#: assumes is its own private list fails loudly instead of silently sharing
#: state across accesses.
NO_RECORDS: Tuple[RoundRecord, ...] = ()


class Ledger:
    """Base class: aggregate communication statistics over an execution.

    ``observer`` is the observability seam (see :mod:`repro.obs`): when set,
    it is called once per recorded round with the round's accounting, *after*
    the aggregates are updated.  Observers must be pure readers — the
    observation-only contract pins that a ledger with an observer charges
    exactly the same rounds/bits as one without.  The default is ``None``,
    which keeps the per-round cost at a single attribute check.
    """

    __slots__ = ("rounds", "total_bits", "total_messages", "max_edge_bits",
                 "observer")

    def __init__(self) -> None:
        self.rounds = 0
        self.total_bits = 0
        self.total_messages = 0
        self.max_edge_bits = 0
        self.observer: Optional[RoundObserver] = None

    def record_round(self, label: str, message_count: int, total_bits: int,
                     max_edge_bits: int) -> None:
        raise NotImplementedError

    def _bump(self, label: str, message_count: int, total_bits: int,
              max_edge_bits: int) -> None:
        self.rounds += 1
        self.total_bits += total_bits
        self.total_messages += message_count
        if max_edge_bits > self.max_edge_bits:
            self.max_edge_bits = max_edge_bits
        if self.observer is not None:
            self.observer(self.rounds, label, message_count, total_bits,
                          max_edge_bits)

    def rounds_by_label(self) -> Dict[str, int]:
        """Number of rounds spent under each label (useful in benchmarks)."""
        raise NotImplementedError

    def bits_by_label(self) -> Dict[str, int]:
        """Total bits charged under each label."""
        raise NotImplementedError

    def messages_by_label(self) -> Dict[str, int]:
        """Total messages delivered under each label."""
        raise NotImplementedError


class RecordingLedger(Ledger):
    """Full-history ledger: keeps one :class:`RoundRecord` per round."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        super().__init__()
        self.records: List[RoundRecord] = []

    def record_round(self, label: str, message_count: int, total_bits: int,
                     max_edge_bits: int) -> None:
        self._bump(label, message_count, total_bits, max_edge_bits)
        self.records.append(
            RoundRecord(
                index=self.rounds,
                label=label,
                message_count=message_count,
                total_bits=total_bits,
                max_edge_bits=max_edge_bits,
            )
        )

    def rounds_by_label(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.label] = counts.get(record.label, 0) + 1
        return counts

    def bits_by_label(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.records:
            totals[record.label] = totals.get(record.label, 0) + record.total_bits
        return totals

    def messages_by_label(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.records:
            totals[record.label] = totals.get(record.label, 0) + record.message_count
        return totals


#: Historical name, kept because algorithms and tests refer to it.
BandwidthLedger = RecordingLedger


class CounterLedger(Ledger):
    """Counters-only ledger for big runs: no per-round history.

    Per-label round/bit/message counts are still maintained (three dict
    increments per round) because the phase breakdowns in results and the
    trace summaries depend on them; everything else is a plain counter.
    ``records`` is always the shared immutable :data:`NO_RECORDS` tuple.
    """

    __slots__ = ("_label_rounds", "_label_bits", "_label_messages")

    def __init__(self) -> None:
        super().__init__()
        self._label_rounds: Dict[str, int] = {}
        self._label_bits: Dict[str, int] = {}
        self._label_messages: Dict[str, int] = {}

    @property
    def records(self) -> Sequence[RoundRecord]:
        return NO_RECORDS

    def record_round(self, label: str, message_count: int, total_bits: int,
                     max_edge_bits: int) -> None:
        self._bump(label, message_count, total_bits, max_edge_bits)
        self._label_rounds[label] = self._label_rounds.get(label, 0) + 1
        self._label_bits[label] = self._label_bits.get(label, 0) + total_bits
        self._label_messages[label] = (
            self._label_messages.get(label, 0) + message_count
        )

    def rounds_by_label(self) -> Dict[str, int]:
        return dict(self._label_rounds)

    def bits_by_label(self) -> Dict[str, int]:
        return dict(self._label_bits)

    def messages_by_label(self) -> Dict[str, int]:
        return dict(self._label_messages)


_LEDGER_KINDS = {
    "records": RecordingLedger,
    "full": RecordingLedger,
    "counters": CounterLedger,
}


def make_ledger(spec: Union[str, Ledger, None] = "records") -> Ledger:
    """Build a ledger from a spec: a kind name, an instance, or ``None``.

    ``"records"`` (default) keeps the full round history; ``"counters"``
    keeps aggregates only.  Passing an existing :class:`Ledger` instance
    returns it unchanged (so an experiment can share one ledger across
    several networks).
    """
    if spec is None:
        return RecordingLedger()
    if isinstance(spec, Ledger):
        return spec
    try:
        return _LEDGER_KINDS[spec]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown ledger kind: {spec!r} (expected one of {sorted(_LEDGER_KINDS)} "
            "or a Ledger instance)"
        ) from None


def _totals_by_phase(by_label: Dict[str, int], prefix_split: str) -> Dict[str, int]:
    """Fold per-label totals into per-phase totals (prefix before ``:``).

    A label without the separator is its own phase; an empty label folds into
    the ``""`` phase — unlabeled rounds stay visible rather than vanishing.
    """
    totals: Dict[str, int] = {}
    for label, value in by_label.items():
        phase = label.split(prefix_split, 1)[0]
        totals[phase] = totals.get(phase, 0) + value
    return totals


def rounds_by_phase(network, prefix_split: str = ":") -> Dict[str, int]:
    """Aggregate round counts by phase label prefix (the part before ``:``)."""
    return _totals_by_phase(network.ledger.rounds_by_label(), prefix_split)


def phase_column_name(kind: str, phase: str) -> str:
    """Flat column name for one phase's totals in a trial row.

    The empty phase (unlabeled rounds) maps to ``"unlabeled"`` so the column
    name stays non-degenerate and the rounds stay visible in aggregates.
    """
    return f"phase_{kind}_{phase or 'unlabeled'}"


def comm_row_metrics(network, prefix_split: str = ":") -> Dict[str, object]:
    """Flat comm-volume columns for one trial row, from either ledger.

    Emits the total message count, bits-per-node, and one
    ``phase_bits_<phase>`` / ``phase_messages_<phase>`` column per phase that
    charged anything — the columns the suite aggregates (and the analytics
    layer on top of them) treat as first-class communication metrics.  Both
    ledgers support the per-label folds, so the columns are available on
    ``records`` and ``counters`` runs alike and are byte-identical across
    backends and ledgers.
    """
    ledger = network.ledger
    nodes = max(1, network.number_of_nodes)
    metrics: Dict[str, object] = {
        "total_messages": ledger.total_messages,
        "bits_per_node": round(ledger.total_bits / nodes, 4),
    }
    for phase, bits in sorted(bits_by_phase(network, prefix_split).items()):
        metrics[phase_column_name("bits", phase)] = bits
    for phase, msgs in sorted(messages_by_phase(network, prefix_split).items()):
        metrics[phase_column_name("messages", phase)] = msgs
    return metrics


def bits_by_phase(network, prefix_split: str = ":") -> Dict[str, int]:
    """Aggregate total bits by phase label prefix (the part before ``:``)."""
    return _totals_by_phase(network.ledger.bits_by_label(), prefix_split)


def messages_by_phase(network, prefix_split: str = ":") -> Dict[str, int]:
    """Aggregate message counts by phase label prefix (the part before ``:``)."""
    return _totals_by_phase(network.ledger.messages_by_label(), prefix_split)
