"""Tests for the MAC layer: CRC-32, framing, and PCS transparency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.wire.mac import (
    BROADCAST,
    ETHERTYPE_IPV4,
    MIN_PAYLOAD_BYTES,
    MacError,
    MacFrame,
    address,
    crc32,
)
from tests.wire.pcs_stream import PcsTransmitStream, receive_stream


class TestCrc32:
    def test_known_vector_check_string(self):
        """The canonical CRC-32 check value: crc32(b"123456789")."""
        assert crc32(b"123456789") == 0xCBF43926

    def test_known_vector_empty(self):
        assert crc32(b"") == 0x00000000

    def test_matches_zlib(self):
        import zlib

        for data in (b"hello", bytes(range(256)), b"\x00" * 64):
            assert crc32(data) == zlib.crc32(data)

    def test_detects_single_bit_flip(self):
        data = bytearray(b"The Datacenter Time Protocol")
        reference = crc32(bytes(data))
        data[5] ^= 0x10
        assert crc32(bytes(data)) != reference


class TestMacFrame:
    def make(self, payload=b"hello world"):
        return MacFrame(
            destination=address("aa:bb:cc:dd:ee:ff"),
            source=address("11:22:33:44:55:66"),
            ethertype=ETHERTYPE_IPV4,
            payload=payload,
        )

    def test_serialize_parse_roundtrip(self):
        frame = self.make()
        parsed = MacFrame.parse(frame.serialize(), original_payload_len=11)
        assert parsed == frame

    def test_short_payload_padded_to_minimum(self):
        frame = self.make(b"x")
        wire = frame.serialize()
        assert len(wire) == 14 + MIN_PAYLOAD_BYTES + 4  # == 64

    def test_fcs_corruption_detected(self):
        wire = bytearray(self.make().serialize())
        wire[20] ^= 0x01
        with pytest.raises(MacError, match="FCS"):
            MacFrame.parse(bytes(wire))

    def test_wire_bytes_has_preamble(self):
        wire = self.make().wire_bytes()
        assert wire[:7] == bytes([0x55] * 7)
        assert wire[7] == 0xD5
        assert MacFrame.parse_wire(wire, original_payload_len=11) == self.make()

    def test_bad_preamble_rejected(self):
        wire = bytearray(self.make().wire_bytes())
        wire[0] = 0x00
        with pytest.raises(MacError, match="preamble"):
            MacFrame.parse_wire(bytes(wire))

    def test_invalid_addresses_rejected(self):
        with pytest.raises(MacError):
            MacFrame(b"\x01", BROADCAST, 0x0800, b"")
        with pytest.raises(MacError):
            address("nonsense")
        with pytest.raises(MacError):
            address("aa:bb:cc:dd:ee")

    def test_truncated_frame_rejected(self):
        with pytest.raises(MacError):
            MacFrame.parse(b"\x00" * 10)


class TestMacThroughPcs:
    def test_frame_survives_pcs_with_dtp_messages(self):
        """End-to-end transparency: a real FCS-protected frame crosses the
        PCS intact while DTP messages ride the surrounding idle blocks."""
        frame = MacFrame(
            destination=address("aa:bb:cc:dd:ee:ff"),
            source=address("11:22:33:44:55:66"),
            ethertype=0x88B5,
            payload=bytes(range(200)),
        )
        tx = PcsTransmitStream()
        tx.queue_dtp((0b010 << 53) | 123456)
        tx.send_frame(frame.wire_bytes())
        tx.queue_dtp((0b010 << 53) | 123457)
        tx.send_idle(2)
        frames, messages, _ = receive_stream(tx.blocks)
        assert len(frames) == 1
        recovered = MacFrame.parse_wire(frames[0], original_payload_len=200)
        assert recovered == frame  # FCS verified: bit-exact transport
        assert messages == [(0b010 << 53) | 123456, (0b010 << 53) | 123457]


@given(payload=st.binary(min_size=0, max_size=1500))
@settings(max_examples=100, deadline=None)
def test_property_frame_roundtrip(payload):
    frame = MacFrame(
        destination=BROADCAST,
        source=address("02:00:00:00:00:01"),
        ethertype=0x0800,
        payload=payload,
    )
    parsed = MacFrame.parse(frame.serialize(), original_payload_len=len(payload))
    assert parsed.payload == payload
