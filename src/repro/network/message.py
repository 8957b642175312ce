"""Network message types and sizes.

Each L2 miss becomes a request/response message pair on the on-stack
interconnect plus a transaction on the memory interconnect.  The sizes below
follow the paper's parameters: 64-byte cache lines (Table 1), small
address/coherence messages, and line-sized data messages with a small header.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.units import CACHE_LINE_BYTES

#: Header bytes carried by every message (address, type, source, MSHR id).
HEADER_BYTES = 8

#: Size of a control-only message (request, acknowledgement, invalidate).
CONTROL_MESSAGE_BYTES = 16


class MessageType(enum.Enum):
    """The message classes exchanged over the on-stack interconnect."""

    READ_REQUEST = "read_request"
    READ_RESPONSE = "read_response"
    WRITE_REQUEST = "write_request"
    WRITE_ACK = "write_ack"
    WRITEBACK = "writeback"
    INVALIDATE = "invalidate"
    INVALIDATE_ACK = "invalidate_ack"
    COHERENCE = "coherence"


#: Message payload size per type.  Data-bearing messages carry a full cache
#: line plus header; control messages are header plus address.
_MESSAGE_SIZES = {
    MessageType.READ_REQUEST: CONTROL_MESSAGE_BYTES,
    MessageType.READ_RESPONSE: CACHE_LINE_BYTES + HEADER_BYTES,
    MessageType.WRITE_REQUEST: CACHE_LINE_BYTES + HEADER_BYTES,
    MessageType.WRITE_ACK: CONTROL_MESSAGE_BYTES,
    MessageType.WRITEBACK: CACHE_LINE_BYTES + HEADER_BYTES,
    MessageType.INVALIDATE: CONTROL_MESSAGE_BYTES,
    MessageType.INVALIDATE_ACK: CONTROL_MESSAGE_BYTES,
    MessageType.COHERENCE: CONTROL_MESSAGE_BYTES,
}


def message_size_bytes(message_type: MessageType) -> int:
    """Payload size (bytes) of a message of the given type."""
    return _MESSAGE_SIZES[message_type]


@dataclass(slots=True)
class Message:
    """A single interconnect message.

    Attributes
    ----------
    src, dst:
        Source and destination cluster ids.
    message_type:
        One of :class:`MessageType`.
    size_bytes:
        Payload size; defaults to the canonical size for the type.
    """

    src: int
    dst: int
    message_type: MessageType
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError(
                f"message endpoints must be non-negative, got {self.src}->{self.dst}"
            )
        if self.size_bytes == 0:
            self.size_bytes = message_size_bytes(self.message_type)
        if self.size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {self.size_bytes}")

    @property
    def is_local(self) -> bool:
        """Whether the message never needs the interconnect."""
        return self.src == self.dst
