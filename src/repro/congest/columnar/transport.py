"""The ``columnar`` transport backend: the engine's fast path.

:class:`ColumnarTransport` is the ``dict`` oracle with its ``broadcast``
replaced; ``exchange``, the chunked primitives and their accounting are the
oracle's own.  The replacement keeps the oracle's observable contract: the
same delivered (sender, receiver, payload) entries and the same ledger
rounds, labels, counts, bits and maxima.  It looks every sender up before it
sizes any payload, sizes the payloads in one ``map(payload_bits, ...)`` pass
(or takes the one width the caller declares), accounts all senders in one
vectorized pass over the topology CSR (degree gather, ``bits * degree``
sums, worst-edge argmax) and gathers the deliveries' receiver column
straight from the senders' CSR rows, naming each sender's value once.

Its byte-identity against the ``dict`` oracle is pinned by
``tests/test_columnar.py`` and the two-backend equivalence matrix.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Mapping, Optional, Tuple

import numpy as np

from repro.congest.bandwidth import payload_bits
from repro.congest.errors import BandwidthExceeded
from repro.congest.message import unwrap
from repro.congest.topology import Topology
from repro.congest.transport import Deliveries, DictTransport
from repro.metrics.ledger import Ledger

Node = Any


class ColumnarTransport(DictTransport):
    """Fast path: the oracle with a vectorized, CSR-routed broadcast.

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

    def broadcast(
        self,
        values: Mapping[Node, Any],
        label: str = "broadcast",
        bits: Optional[int] = None,
    ) -> Deliveries:
        """The oracle's record and deliveries, gathered from the CSR rows.

        Every sender is looked up before any payload is sized, so an unknown
        sender raises the oracle's ProtocolError.  Each sender's value is
        named once: a delivery's slot is its sender's position in send
        order, and the sender's receivers are its CSR row.
        """
        senders = list(values)
        slots = np.fromiter(
            map(self.topology.node_index.get, senders, repeat(-1)),
            dtype=np.int64, count=len(senders),
        )
        unknown = np.flatnonzero(slots < 0)
        if len(unknown):
            self.topology.neighbors(senders[int(unknown[0])])  # raises the canonical ProtocolError
        payloads = list(values.values())
        if bits is None:
            sizes = np.fromiter(map(payload_bits, payloads), dtype=np.int64,
                                count=len(payloads))
            payloads = list(map(unwrap, payloads))
        else:
            sizes = np.full(len(payloads), bits, dtype=np.int64)
        message_count, total_bits, max_edge_bits = self._account_broadcast(
            senders, slots, sizes, label
        )
        receivers, positions = self.topology.gather_rows(slots)
        self.ledger.record_round(label, message_count, total_bits, max_edge_bits)
        return Deliveries(receivers, slots[positions], payloads, positions)
