"""CSR-offset message round buffers.

The columnar core never stores a round's traffic as per-edge dict entries.
A broadcast round is one ``offsets``/``storage`` pair: ``offsets[i] ..
offsets[i+1]`` delimit sender ``i``'s run in ``storage`` (payload contents)
and ``receiver_slots`` (destination slots), in the sender's CSR adjacency
order.  Written sender-side in one vectorized gather, read receiver-side
sender-major, so every receiver's inbox lists its senders in send order —
the reference backend's insertion sequence (``tests/test_columnar.py`` pins
the round-trip, including zero-bit and max-width messages).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np


def _object_array(payloads: Sequence[object]) -> "np.ndarray":
    # np.array(payloads, dtype=object) would try to broadcast sequence
    # payloads (tuples, lists) into extra dimensions; fill explicitly.
    arr = np.empty(len(payloads), dtype=object)
    arr[:] = list(payloads)
    return arr


class CsrRoundBuffer:
    """One round's messages as flat CSR arrays.

    ``sender_slots[i]`` sent ``storage[offsets[i]:offsets[i+1]]`` to
    ``receiver_slots[offsets[i]:offsets[i+1]]``, in that order.
    """

    __slots__ = ("sender_slots", "offsets", "receiver_slots", "storage")

    def __init__(self, sender_slots, offsets, receiver_slots, storage):
        self.sender_slots = sender_slots
        self.offsets = offsets
        self.receiver_slots = receiver_slots
        self.storage = storage

    @classmethod
    def from_broadcast(cls, indptr, indices, sender_slots, payloads) -> "CsrRoundBuffer":
        """Write-side: expand per-sender payloads over the topology CSR.

        ``indptr``/``indices`` are the topology CSR as int64 arrays,
        ``sender_slots`` the int64 slots of the senders in send order, and
        ``payloads`` the aligned per-sender payload contents (each sender
        broadcasts one content to its whole CSR row).
        """
        counts = indptr[sender_slots + 1] - indptr[sender_slots]
        offsets = np.zeros(len(sender_slots) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        # Gather each sender's CSR row into one flat run: position p of the
        # flat output maps to indices[row_start + (p - run_start)].
        flat = np.arange(total, dtype=np.int64)
        flat -= np.repeat(offsets[:-1], counts)
        flat += np.repeat(indptr[sender_slots], counts)
        receiver_slots = indices[flat]
        storage = np.repeat(_object_array(payloads), counts)
        return cls(np.asarray(sender_slots, dtype=np.int64), offsets, receiver_slots, storage)

    def __len__(self) -> int:
        return int(self.offsets[-1]) if len(self.offsets) else 0

    def entries(self) -> Iterator[Tuple[int, int, object]]:
        """Yield ``(sender_slot, receiver_slot, payload)`` in storage order.

        Storage order is sender-major (senders in send order, receivers in
        CSR row order) — the order ``ColumnarTransport.broadcast`` replays
        into the inboxes.
        """
        senders = self.sender_slots.tolist()
        offsets = self.offsets.tolist()
        receivers = self.receiver_slots.tolist()
        payloads = self.storage.tolist()
        for i, sender in enumerate(senders):
            for pos in range(offsets[i], offsets[i + 1]):
                yield sender, receivers[pos], payloads[pos]
