"""Clause 49 PCS block streaming: frames + DTP messages -> 66-bit blocks.

The simulation's timing model only needs to know *when* idle blocks occur,
but a credible PHY also has to show the actual encoding works: Ethernet
frames segmented into START / DATA / TERMINATE blocks, interpacket gaps as
idle blocks, DTP messages multiplexed into exactly those idle blocks, and
the receive side recovering both frames and messages while presenting
pristine idles to the MAC (paper Section 4.2).

Block formats implemented (IEEE 802.3 Clause 49, figure 49-7):

* sync ``01``: eight data octets;
* sync ``10``, type 0x1E: eight 7-bit control characters (idle — DTP's
  carrier);
* sync ``10``, type 0x78: START, one control nibble + 7 data octets (the
  frame's first 7 octets ride along);
* sync ``10``, types 0x87/0x99/0xAA/0xB4/0xCC/0xD2/0xE1/0xFF: TERMINATE
  with 0..7 trailing data octets, the rest idle characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.phy.blocks import BLOCK_TYPE_IDLE, SYNC_CONTROL, SYNC_DATA
from tests.wire.blocks import Block66, embed_bits_in_idle, extract_bits_from_idle, idle_block

BLOCK_TYPE_START = 0x78
#: TERMINATE block types indexed by the number of data octets they carry.
TERMINATE_TYPES = (0x87, 0x99, 0xAA, 0xB4, 0xCC, 0xD2, 0xE1, 0xFF)
_TERMINATE_INDEX = {t: i for i, t in enumerate(TERMINATE_TYPES)}


class PcsStreamError(ValueError):
    """Raised on malformed block streams."""


@dataclass
class StreamItem:
    """One decoded element of a block stream."""

    kind: str  # "frame", "dtp", or "idle"
    frame: Optional[bytes] = None
    dtp_bits: Optional[int] = None


def encode_frame(frame: bytes) -> List[Block66]:
    """Segment one frame (starting with its preamble) into PCS blocks."""
    if len(frame) < 8:
        raise PcsStreamError("a frame must be at least 8 octets with preamble")
    blocks: List[Block66] = []
    # START block: type octet + first 7 frame octets.
    payload = BLOCK_TYPE_START << 56
    payload |= int.from_bytes(frame[:7], "big")
    blocks.append(Block66(sync=SYNC_CONTROL, payload=payload))
    position = 7
    # Full data blocks.
    while len(frame) - position >= 8:
        chunk = frame[position : position + 8]
        blocks.append(Block66(sync=SYNC_DATA, payload=int.from_bytes(chunk, "big")))
        position += 8
    # TERMINATE block with the 0..7 remaining octets.
    remainder = frame[position:]
    terminate_type = TERMINATE_TYPES[len(remainder)]
    payload = terminate_type << 56
    payload |= int.from_bytes(remainder.ljust(7, b"\x00"), "big")
    blocks.append(Block66(sync=SYNC_CONTROL, payload=payload))
    return blocks


def decode_blocks(blocks: List[Block66]) -> List[StreamItem]:
    """Recover frames, DTP messages and idle runs from a block stream."""
    items: List[StreamItem] = []
    current: Optional[bytearray] = None
    for block in blocks:
        if block.sync == SYNC_DATA:
            if current is None:
                raise PcsStreamError("data block outside a frame")
            current.extend(block.payload.to_bytes(8, "big"))
            continue
        block_type = block.block_type
        if block_type == BLOCK_TYPE_START:
            if current is not None:
                raise PcsStreamError("START inside a frame")
            current = bytearray((block.payload & ((1 << 56) - 1)).to_bytes(7, "big"))
        elif block_type in _TERMINATE_INDEX:
            if current is None:
                raise PcsStreamError("TERMINATE outside a frame")
            count = _TERMINATE_INDEX[block_type]
            tail = (block.payload & ((1 << 56) - 1)).to_bytes(7, "big")[:count]
            current.extend(tail)
            items.append(StreamItem(kind="frame", frame=bytes(current)))
            current = None
        elif block_type == BLOCK_TYPE_IDLE:
            bits = extract_bits_from_idle(block)
            if bits:
                items.append(StreamItem(kind="dtp", dtp_bits=bits))
            else:
                items.append(StreamItem(kind="idle"))
        else:
            raise PcsStreamError(f"unsupported block type {block_type:#04x}")
    if current is not None:
        raise PcsStreamError("stream ended mid-frame")
    return items


@dataclass
class PcsTransmitStream:
    """TX-side multiplexer: frames and DTP messages onto the block stream.

    Mirrors the DTP TX sublayer of Figure 3: frames pass through unchanged;
    whenever the MAC has nothing to send, the stream emits idle blocks, and
    a pending DTP message claims the first one.
    """

    blocks: List[Block66] = field(default_factory=list)
    _pending_dtp: List[int] = field(default_factory=list)

    def queue_dtp(self, bits56: int) -> None:
        self._pending_dtp.append(bits56)

    def send_frame(self, frame: bytes) -> None:
        self.blocks.extend(encode_frame(frame))
        # The standard guarantees >= one idle block between frames; that
        # block is DTP's opportunity.
        self.send_idle(1)

    def send_idle(self, count: int) -> None:
        for _ in range(count):
            if self._pending_dtp:
                self.blocks.append(embed_bits_in_idle(self._pending_dtp.pop(0)))
            else:
                self.blocks.append(idle_block())

    @property
    def pending_messages(self) -> int:
        return len(self._pending_dtp)


def receive_stream(blocks: List[Block66]) -> Tuple[List[bytes], List[int], List[Block66]]:
    """RX side: returns (frames, dtp messages, blocks as seen by the MAC).

    The MAC-visible stream has every DTP-bearing idle block rewritten to a
    pristine /E/ (paper: "higher network layers do not know about the
    existence of the DTP sublayer").
    """
    frames: List[bytes] = []
    messages: List[int] = []
    mac_view: List[Block66] = []
    current: Optional[bytearray] = None
    for block in blocks:
        if block.is_idle:
            bits = extract_bits_from_idle(block)
            if bits:
                messages.append(bits)
                mac_view.append(idle_block())
            else:
                mac_view.append(block)
            continue
        mac_view.append(block)
        if block.sync == SYNC_DATA:
            if current is not None:
                current.extend(block.payload.to_bytes(8, "big"))
            continue
        block_type = block.block_type
        if block_type == BLOCK_TYPE_START:
            current = bytearray((block.payload & ((1 << 56) - 1)).to_bytes(7, "big"))
        elif block_type in _TERMINATE_INDEX and current is not None:
            count = _TERMINATE_INDEX[block_type]
            tail = (block.payload & ((1 << 56) - 1)).to_bytes(7, "big")[:count]
            current.extend(tail)
            frames.append(bytes(current))
            current = None
    return frames, messages, mac_view
