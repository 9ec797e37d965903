"""The bandwidth ledger and experiment-level accounting.

The ledger is the accounting half of the communication engine (see
DESIGN.md): every transport backend reports each synchronous round to the
network's one :class:`Ledger` via :meth:`Ledger.record_round`, which updates
the aggregates (rounds, bits, messages, the largest per-edge payload) and
keeps one :class:`RoundRecord` per round.  The per-label and per-phase
breakdowns fold those records.

The history is small: the largest committed baseline runs 519 rounds in one
trial, and an n = 500 000 solve runs 62, so one record per round never
dominates memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional


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


class Ledger:
    """Aggregate communication statistics over an execution, round by round.

    ``observer`` is the observability seam (see :mod:`repro.obs`): when set,
    it is called once per recorded round with the round's accounting, *after*
    the aggregates are updated.  Observers must be pure readers — the
    observation-only contract pins that a ledger with an observer charges
    exactly the same rounds/bits as one without.  The default is ``None``,
    which keeps the per-round cost at a single attribute check.
    """

    __slots__ = ("rounds", "total_bits", "total_messages", "max_edge_bits",
                 "observer", "records")

    def __init__(self) -> None:
        self.rounds = 0
        self.total_bits = 0
        self.total_messages = 0
        self.max_edge_bits = 0
        self.observer: Optional[RoundObserver] = None
        self.records: List[RoundRecord] = []

    def record_round(self, label: str, message_count: int, total_bits: int,
                     max_edge_bits: int) -> None:
        self.rounds += 1
        self.total_bits += total_bits
        self.total_messages += message_count
        if max_edge_bits > self.max_edge_bits:
            self.max_edge_bits = max_edge_bits
        self.records.append(RoundRecord(
            index=self.rounds,
            label=label,
            message_count=message_count,
            total_bits=total_bits,
            max_edge_bits=max_edge_bits,
        ))
        if self.observer is not None:
            self.observer(self.rounds, label, message_count, total_bits,
                          max_edge_bits)

    def rounds_by_label(self) -> Dict[str, int]:
        """Number of rounds spent under each label (useful in benchmarks)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.label] = counts.get(record.label, 0) + 1
        return counts

    def bits_by_label(self) -> Dict[str, int]:
        """Total bits charged under each label."""
        totals: Dict[str, int] = {}
        for record in self.records:
            totals[record.label] = totals.get(record.label, 0) + record.total_bits
        return totals

    def messages_by_label(self) -> Dict[str, int]:
        """Total messages delivered under each label."""
        totals: Dict[str, int] = {}
        for record in self.records:
            totals[record.label] = totals.get(record.label, 0) + record.message_count
        return totals


def phase_of(label: str) -> str:
    """The phase a round label belongs to: the part before the first ``:``.

    A label without ``:`` is its own phase; the empty label is the ``""``
    phase, so unlabeled rounds stay visible rather than vanishing.
    """
    return label.split(":", 1)[0]


def _totals_by_phase(by_label: Dict[str, int]) -> Dict[str, int]:
    """Fold per-label totals into per-phase totals (see :func:`phase_of`)."""
    totals: Dict[str, int] = {}
    for label, value in by_label.items():
        phase = phase_of(label)
        totals[phase] = totals.get(phase, 0) + value
    return totals


def rounds_by_phase(network) -> Dict[str, int]:
    """Aggregate round counts by phase (see :func:`phase_of`)."""
    return _totals_by_phase(network.ledger.rounds_by_label())


def bits_by_phase(network) -> Dict[str, int]:
    """Aggregate total bits by phase (see :func:`phase_of`)."""
    return _totals_by_phase(network.ledger.bits_by_label())


def messages_by_phase(network) -> Dict[str, int]:
    """Aggregate message counts by phase (see :func:`phase_of`)."""
    return _totals_by_phase(network.ledger.messages_by_label())


def phase_columns(bits: Mapping[str, int],
                  messages: Mapping[str, int]) -> Dict[str, int]:
    """Flatten per-phase totals into trial-row columns.

    One ``phase_bits_<phase>`` column per phase, then one
    ``phase_messages_<phase>`` column per phase, each in phase order; the
    empty phase (unlabeled rounds) is named ``unlabeled`` so the column name
    stays non-degenerate.  Within a scenario every trial runs the same
    solver, so the phase set is (near-)stable across trials; a phase that
    only some trials entered simply drops out of the aggregate
    (``aggregate_rows`` skips ragged columns), deterministically.
    """
    columns: Dict[str, int] = {}
    for kind, totals in (("bits", bits), ("messages", messages)):
        for phase, value in sorted(totals.items()):
            columns[f"phase_{kind}_{phase or 'unlabeled'}"] = value
    return columns


def comm_row_metrics(network) -> Dict[str, object]:
    """Flat comm-volume columns for one trial row, read off a network.

    Emits the total message count, bits-per-node, and the
    :func:`phase_columns` of every phase that charged anything — the columns
    the suite aggregates (and the analytics layer on top of them) treat as
    first-class communication metrics.  They are byte-identical across
    backends.
    """
    ledger = network.ledger
    nodes = max(1, network.number_of_nodes)
    metrics: Dict[str, object] = {
        "total_messages": ledger.total_messages,
        "bits_per_node": round(ledger.total_bits / nodes, 4),
    }
    metrics.update(phase_columns(bits_by_phase(network),
                                 messages_by_phase(network)))
    return metrics
