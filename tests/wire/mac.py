"""MAC-layer frames: addressing, padding, and a real CRC-32 FCS.

DTP's promise to higher layers is *total invisibility*: frames enter one
MAC and exit the other bit-exact, FCS and all, no matter how many DTP
messages rode the gaps between them.  To assert that byte-for-byte, the
substrate needs genuine frames — EtherType, 46-byte minimum payload
padding, and the IEEE 802.3 frame check sequence (reflected CRC-32,
polynomial 0x04C11DB7) implemented from scratch below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ethernet.frames import MIN_FRAME_BYTES

MAC_ADDRESS_BYTES = 6
ETHERTYPE_BYTES = 2
HEADER_BYTES = 2 * MAC_ADDRESS_BYTES + ETHERTYPE_BYTES
FCS_BYTES = 4
MIN_PAYLOAD_BYTES = MIN_FRAME_BYTES - HEADER_BYTES - FCS_BYTES  # 46

PREAMBLE = bytes([0x55] * 7)
SFD = bytes([0xD5])

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_PTP = 0x88F7

BROADCAST = bytes([0xFF] * 6)


class MacError(ValueError):
    """Raised on malformed frames."""


# ----------------------------------------------------------------------
# CRC-32 (IEEE 802.3): reflected, init 0xFFFFFFFF, final xor 0xFFFFFFFF.
# ----------------------------------------------------------------------
def _build_crc_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320  # reflected 0x04C11DB7
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC_TABLE = _build_crc_table()


def crc32(data: bytes) -> int:
    """IEEE 802.3 CRC-32 of ``data``."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


@dataclass
class MacFrame:
    """An Ethernet II frame (what the MAC hands the PCS, minus preamble)."""

    destination: bytes
    source: bytes
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.destination) != MAC_ADDRESS_BYTES:
            raise MacError("destination must be 6 octets")
        if len(self.source) != MAC_ADDRESS_BYTES:
            raise MacError("source must be 6 octets")
        if not 0 <= self.ethertype <= 0xFFFF:
            raise MacError("ethertype must fit in 16 bits")
        if len(self.payload) > 9000:
            raise MacError("payload exceeds jumbo limit")

    def serialize(self) -> bytes:
        """Header + padded payload + FCS (no preamble)."""
        padded = self.payload
        if len(padded) < MIN_PAYLOAD_BYTES:
            padded = padded + bytes(MIN_PAYLOAD_BYTES - len(padded))
        body = (
            self.destination
            + self.source
            + self.ethertype.to_bytes(2, "big")
            + padded
        )
        fcs = crc32(body)
        return body + fcs.to_bytes(4, "little")

    def wire_bytes(self) -> bytes:
        """Preamble + SFD + frame: what actually crosses the PCS."""
        return PREAMBLE + SFD + self.serialize()

    @classmethod
    def parse(cls, frame: bytes, original_payload_len: Optional[int] = None) -> "MacFrame":
        """Parse and FCS-verify a serialized frame (no preamble).

        ``original_payload_len`` trims padding when the caller knows the
        true payload size (real stacks learn it from the EtherType layer).
        """
        if len(frame) < HEADER_BYTES + FCS_BYTES:
            raise MacError(f"frame of {len(frame)} B is too short")
        body, fcs_bytes = frame[:-4], frame[-4:]
        expected = crc32(body)
        received = int.from_bytes(fcs_bytes, "little")
        if expected != received:
            raise MacError(
                f"FCS mismatch: computed {expected:#010x}, got {received:#010x}"
            )
        payload = body[HEADER_BYTES:]
        if original_payload_len is not None:
            if original_payload_len > len(payload):
                raise MacError("claimed payload longer than frame")
            payload = payload[:original_payload_len]
        return cls(
            destination=body[:6],
            source=body[6:12],
            ethertype=int.from_bytes(body[12:14], "big"),
            payload=payload,
        )

    @classmethod
    def parse_wire(cls, wire: bytes, original_payload_len: Optional[int] = None) -> "MacFrame":
        """Parse a frame that still carries its preamble + SFD."""
        if wire[: len(PREAMBLE)] != PREAMBLE or wire[7:8] != SFD:
            raise MacError("missing or corrupt preamble/SFD")
        return cls.parse(wire[8:], original_payload_len)


def address(text: str) -> bytes:
    """Parse ``aa:bb:cc:dd:ee:ff`` into six octets."""
    parts = text.split(":")
    if len(parts) != 6:
        raise MacError(f"bad MAC address {text!r}")
    try:
        octets = bytes(int(part, 16) for part in parts)
    except ValueError:
        raise MacError(f"bad MAC address {text!r}") from None
    return octets
