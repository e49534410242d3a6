"""Unit and property tests for 64b/66b block handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.blocks import (
    BLOCK_TYPE_IDLE,
    CONTROL_CHARS_PER_BLOCK,
    IDLE_PAYLOAD_BITS,
    SYNC_CONTROL,
    SYNC_DATA,
)
from tests.wire.blocks import (
    IDLE_CHAR,
    Block66,
    BlockError,
    control_chars_to_payload,
    embed_bits_in_idle,
    extract_bits_from_idle,
    idle_block,
)


def control_chars(payload):
    """The eight 7-bit characters of a control-block payload, in wire order."""
    return [(payload >> shift) & 0x7F for shift in range(49, -1, -7)]


class TestBlock66:
    def test_sync_header_in_msbs(self):
        block = Block66(sync=SYNC_CONTROL, payload=0)
        assert block.to_int() >> 64 == SYNC_CONTROL

    def test_invalid_sync_rejected(self):
        with pytest.raises(BlockError):
            Block66(sync=0b00, payload=0)
        with pytest.raises(BlockError):
            Block66(sync=0b11, payload=0)

    def test_payload_width_enforced(self):
        with pytest.raises(BlockError):
            Block66(sync=SYNC_DATA, payload=1 << 64)

    def test_data_block_has_no_block_type(self):
        with pytest.raises(BlockError):
            _ = Block66(sync=SYNC_DATA, payload=0).block_type


class TestIdleBlocks:
    def test_idle_block_structure(self):
        block = idle_block()
        assert block.is_control
        assert block.is_idle
        assert block.block_type == BLOCK_TYPE_IDLE

    def test_idle_block_chars_all_idle(self):
        assert control_chars(idle_block().payload) == [IDLE_CHAR] * CONTROL_CHARS_PER_BLOCK

    def test_control_chars_roundtrip(self):
        chars = [1, 2, 3, 4, 5, 6, 7, 8]
        payload = control_chars_to_payload(chars)
        assert payload >> 56 == BLOCK_TYPE_IDLE
        assert control_chars(payload) == chars

    def test_control_chars_width_enforced(self):
        with pytest.raises(BlockError):
            control_chars_to_payload([0x80] + [0] * 7)

    def test_control_chars_count_enforced(self):
        with pytest.raises(BlockError):
            control_chars_to_payload([0] * 7)


class TestDtpEmbedding:
    def test_embed_extract_roundtrip(self):
        bits = (0b101 << 53) | 0x1234567890ABC
        block = embed_bits_in_idle(bits)
        assert block.is_idle  # still parses as an idle control block
        assert extract_bits_from_idle(block) == bits

    def test_embedded_block_keeps_idle_type(self):
        block = embed_bits_in_idle((1 << 56) - 1)
        assert block.block_type == BLOCK_TYPE_IDLE

    def test_embed_rejects_oversized(self):
        with pytest.raises(BlockError):
            embed_bits_in_idle(1 << IDLE_PAYLOAD_BITS)

    def test_extract_from_data_block_rejected(self):
        with pytest.raises(BlockError):
            extract_bits_from_idle(Block66(sync=SYNC_DATA, payload=0))


@given(bits=st.integers(min_value=0, max_value=(1 << 56) - 1))
@settings(max_examples=200, deadline=None)
def test_property_embed_extract_identity(bits):
    assert extract_bits_from_idle(embed_bits_in_idle(bits)) == bits


@given(chars=st.lists(st.integers(min_value=0, max_value=127), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_property_control_chars_roundtrip(chars):
    assert control_chars(control_chars_to_payload(chars)) == chars
