"""The ``columnar`` transport backend: the engine's fast path.

:class:`ColumnarTransport` is the ``dict`` oracle with its two broadcast
primitives replaced; ``exchange``, the chunked primitives and their
accounting are the oracle's own.  The replacements keep the oracle's
observable contract — same delivered payloads, same sender-major inbox
insertion order, same ledger rounds/labels/counts/bits/maxima:

* ``broadcast`` sizes each sender's payload once, accounts all senders in
  one vectorized pass over the topology CSR (degree gather,
  ``bits * degree`` sums, worst-edge argmax) and fills the inboxes straight
  from each sender's CSR row;
* ``broadcast_discard`` charges a broadcast whose inboxes the caller throws
  away (the ACD's participation/degree announcements) without materialising
  a single inbox dict.

The byte-identity of both against the ``dict`` oracle is pinned by
``tests/test_columnar.py`` and the two-backend equivalence matrix.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.congest.bandwidth import payload_bits
from repro.congest.errors import BandwidthExceeded
from repro.congest.message import Message
from repro.congest.topology import Topology
from repro.congest.transport import EMPTY_INBOX, DictTransport
from repro.metrics.ledger import Ledger

Node = Any


class ColumnarTransport(DictTransport):
    """Fast path: the oracle with vectorized, CSR-routed broadcasts.

    On a broadcast round with several over-budget senders the *reported*
    edge may differ from ``dict``: ``dict`` names the first over-budget
    sender in send order, paired with its first neighbor in neighbor-set
    order, while ``columnar`` names the first sender at the largest payload,
    paired with the head of its CSR row.  Either way the round is rejected
    before it is recorded.

    The vectorized ``EstimateSimilarity`` kernel
    (:mod:`repro.congest.columnar.sweep`) runs only on an instance of this
    class, for the ACD, triangle detection and sparsity alike; the ``dict``
    oracle and the fault transport take the scalar reference sweep.
    """

    name = "columnar"

    def __init__(self, topology: Topology, mode: str, bandwidth_bits: int,
                 ledger: Ledger):
        super().__init__(topology, mode, bandwidth_bits, ledger)
        # array("l") exposes the buffer protocol, so these are zero-copy
        # int64 views of the topology CSR.
        self._np_indptr = np.asarray(topology.indptr, dtype=np.int64)
        self._np_indices = np.asarray(topology.indices, dtype=np.int64)
        self._np_degrees = np.diff(self._np_indptr)

    # ------------------------------------------------------------- broadcast
    def _account_broadcast(
        self, senders: List[Node], slots: "np.ndarray", bits: "np.ndarray",
        label: str,
    ) -> Tuple[int, int, int]:
        """Vectorized ledger arithmetic for one broadcast round.

        Returns ``(message_count, total_bits, max_edge_bits)`` after the
        budget audit, matching a running per-sender accounting loop:
        isolated senders contribute nothing, and the audited worst edge is
        the first sender (in send order) attaining the maximal per-edge bits,
        paired with the head of its CSR row.
        """
        degrees = self._np_degrees[slots]
        message_count = int(degrees.sum())
        if message_count == 0:
            return 0, 0, 0
        total_bits = int((bits * degrees).sum())
        nonzero = degrees > 0
        max_edge_bits = int(bits[nonzero].max())
        if self.mode == "congest" and max_edge_bits > self.bandwidth_bits:
            first = int(np.flatnonzero(nonzero & (bits == max_edge_bits))[0])
            worst_slot = int(slots[first])
            worst_edge = (
                senders[first],
                self.topology.nodes[int(self._np_indices[int(self._np_indptr[worst_slot])])],
            )
            raise BandwidthExceeded(
                worst_edge, max_edge_bits, self.bandwidth_bits, label
            )
        return message_count, total_bits, max_edge_bits

    def _collect_senders(
        self, values: Mapping[Node, Any]
    ) -> Tuple[List[Node], List[Any], "np.ndarray", "np.ndarray"]:
        """Scalar prologue: slot + sized bits + unwrapped content per sender.

        Each payload is sized once, by ``payload_bits``, and an unknown
        sender raises the canonical ProtocolError at the same position in
        send order.
        """
        topology = self.topology
        node_index = topology.node_index
        count = len(values)
        slots = np.empty(count, dtype=np.int64)
        bits = np.empty(count, dtype=np.int64)
        senders: List[Node] = []
        contents: List[Any] = []
        pos = 0
        for sender, payload in values.items():
            i = node_index.get(sender)
            if i is None:
                topology.neighbors(sender)  # raises the canonical ProtocolError
            slots[pos] = i
            bits[pos] = payload_bits(payload)
            senders.append(sender)
            contents.append(payload.content if isinstance(payload, Message) else payload)
            pos += 1
        return senders, contents, slots, bits

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
    ) -> Dict[Node, Mapping[Node, Any]]:
        nodes = self.topology.nodes
        senders, contents, slots, bits = self._collect_senders(values)
        message_count, total_bits, max_edge_bits = self._account_broadcast(
            senders, slots, bits, label
        )
        # Senders in send order, each over its CSR row: every receiver sees
        # its senders in send order (the reference backend's inbox insertion
        # sequence).  Slot-indexed boxes replace per-node dict lookups, and
        # rows are read from the topology's arrays, so no per-round receiver
        # or payload column is built.
        boxes: List[Any] = [EMPTY_INBOX] * len(nodes)
        indptr = self.topology.indptr
        indices = self.topology.indices
        for sender, content, i in zip(senders, contents, slots.tolist()):
            for j in indices[indptr[i]:indptr[i + 1]]:
                box = boxes[j]
                if box is EMPTY_INBOX:
                    box = boxes[j] = {}
                box[sender] = content
        self.ledger.record_round(label, message_count, total_bits, max_edge_bits)
        return dict(zip(nodes, boxes))

    def broadcast_discard(
        self, values: Mapping[Node, Any], label: str = "broadcast"
    ) -> None:
        """Charge a broadcast whose inboxes the caller discards.

        Identical ledger record (and identical BandwidthExceeded on
        violating rounds) to a full ``broadcast`` of ``values`` — the inbox
        fill is the only thing skipped, which is exactly what the discarding
        call sites (ACD participation/degree announcements) never observe.
        """
        senders, _contents, slots, bits = self._collect_senders(values)
        message_count, total_bits, max_edge_bits = self._account_broadcast(
            senders, slots, bits, label
        )
        self.ledger.record_round(label, message_count, total_bits, max_edge_bits)
        return None
