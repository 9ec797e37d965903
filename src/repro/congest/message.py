"""Message wrapper carrying an explicit bit-size declaration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Message:
    """A payload with an explicit bandwidth charge.

    Attributes
    ----------
    content:
        The logical content delivered to the receiver.
    bits:
        The number of bits the simulator charges for this message.  This is
        the quantity the paper's analysis bounds (e.g. ``σ`` bits for an
        indicator bitstring, ``log F`` bits for a hash-family index).
    label:
        Optional human-readable tag used in bandwidth reports.
    """

    content: Any
    bits: int
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("bits must be non-negative")


def unwrap(payload: object) -> object:
    """Return ``payload.content`` if it is a Message, else the payload itself."""
    if isinstance(payload, Message):
        return payload.content
    return payload
