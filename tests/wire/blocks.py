"""The 64b/66b block as an object: what ``repro.phy.blocks``'s ints encode.

The simulation carries each block as a 66-bit int built from the constants
in :mod:`repro.phy.blocks`.  The wire model here builds and parses real
blocks, so it needs them as objects: a sync header plus a 64-bit payload,
the idle /E/ block, and DTP's 56 bits embedded in its control characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.phy.blocks import (
    BLOCK_TYPE_IDLE,
    CONTROL_CHARS_PER_BLOCK,
    IDLE_PAYLOAD_BITS,
    IDLE_PAYLOAD_MASK,
    SYNC_CONTROL,
    SYNC_DATA,
)

#: The 7-bit idle control character /I/.
IDLE_CHAR = 0x00


class BlockError(ValueError):
    """Raised on malformed 66-bit blocks."""


@dataclass(frozen=True)
class Block66:
    """An undecoded 66-bit PCS block: 2-bit sync header + 64-bit payload."""

    sync: int
    payload: int

    def __post_init__(self) -> None:
        if self.sync not in (SYNC_DATA, SYNC_CONTROL):
            raise BlockError(f"invalid sync header {self.sync:#04b}")
        if not 0 <= self.payload < (1 << 64):
            raise BlockError("payload must fit in 64 bits")

    def to_int(self) -> int:
        """Pack into a 66-bit integer, sync header in the two MSBs."""
        return (self.sync << 64) | self.payload

    @property
    def is_control(self) -> bool:
        return self.sync == SYNC_CONTROL

    @property
    def block_type(self) -> int:
        """Block type field (first payload octet) of a control block."""
        if not self.is_control:
            raise BlockError("data blocks have no block type")
        return (self.payload >> 56) & 0xFF

    @property
    def is_idle(self) -> bool:
        """True for an all-control block (the only place DTP may write)."""
        return self.is_control and self.block_type == BLOCK_TYPE_IDLE


def control_chars_to_payload(chars: List[int]) -> int:
    """Pack eight 7-bit control characters behind an idle block type."""
    if len(chars) != CONTROL_CHARS_PER_BLOCK:
        raise BlockError(f"need {CONTROL_CHARS_PER_BLOCK} chars, got {len(chars)}")
    packed = 0
    for char in chars:
        if not 0 <= char < (1 << 7):
            raise BlockError(f"control char {char:#x} does not fit in 7 bits")
        packed = (packed << 7) | char
    return (BLOCK_TYPE_IDLE << 56) | packed


def idle_block() -> Block66:
    """A standard-conforming all-idle /E/ block (eight /I/ characters)."""
    return Block66(
        sync=SYNC_CONTROL,
        payload=control_chars_to_payload([IDLE_CHAR] * CONTROL_CHARS_PER_BLOCK),
    )


def embed_bits_in_idle(bits56: int) -> Block66:
    """Embed a 56-bit value in the idle characters of an /E/ block.

    This is how DTP transmits a message: the block still parses as an
    all-control block (same block type), only the control characters differ.
    """
    if not 0 <= bits56 < (1 << IDLE_PAYLOAD_BITS):
        raise BlockError("DTP message must fit in 56 bits")
    return Block66(sync=SYNC_CONTROL, payload=(BLOCK_TYPE_IDLE << 56) | bits56)


def extract_bits_from_idle(block: Block66) -> int:
    """Recover the 56 idle-character bits from an /E/ block."""
    if not block.is_idle:
        raise BlockError("not an idle control block")
    return block.payload & IDLE_PAYLOAD_MASK
