"""Unit tests for DTP-over-1G ordered sets and the Clause 49 block stream."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.wire.blocks import idle_block
from tests.wire.dtp_1g import (
    Dtp1GError,
    SETS_PER_MESSAGE,
    decode_interframe_gap,
    encode_interframe_gap,
    reassemble_message,
    segment_message,
)
from tests.wire.encoding_8b10b import Decoder8b10b, Encoder8b10b, K28_1
from tests.wire.pcs_stream import (
    PcsStreamError,
    PcsTransmitStream,
    decode_blocks,
    encode_frame,
    receive_stream,
)
from tests.wire.scrambler import Scrambler


class TestDtp1G:
    def test_segmentation_roundtrip(self):
        message = (0b010 << 53) | 0xABCDE12345
        assert reassemble_message(segment_message(message)) == message

    def test_seven_sets_per_message(self):
        assert len(segment_message(0)) == SETS_PER_MESSAGE

    def test_sets_lead_with_k28_1(self):
        for lead, _payload in segment_message(12345):
            assert lead == K28_1

    def test_oversized_message_rejected(self):
        with pytest.raises(Dtp1GError):
            segment_message(1 << 56)

    def test_wrong_set_count_rejected(self):
        with pytest.raises(Dtp1GError):
            reassemble_message(segment_message(5)[:-1])

    def test_wire_roundtrip_with_idles(self):
        message = (0b011 << 53) | 987654321
        groups = encode_interframe_gap(message, idle_sets=5, encoder=Encoder8b10b())
        decoded, idles = decode_interframe_gap(groups, Decoder8b10b())
        assert decoded == message
        assert idles == 5

    def test_pure_idle_gap(self):
        groups = encode_interframe_gap(None, idle_sets=4, encoder=Encoder8b10b())
        decoded, idles = decode_interframe_gap(groups, Decoder8b10b())
        assert decoded is None
        assert idles == 4

    def test_odd_group_count_rejected(self):
        groups = encode_interframe_gap(None, idle_sets=1, encoder=Encoder8b10b())
        with pytest.raises(Dtp1GError):
            decode_interframe_gap(groups[:-1], Decoder8b10b())


class TestPcsStream:
    def test_frame_roundtrip(self):
        frame = bytes(range(100))
        blocks = encode_frame(frame)
        items = decode_blocks(blocks)
        assert len(items) == 1
        assert items[0].kind == "frame"
        assert items[0].frame == frame

    def test_frame_sizes_edge_cases(self):
        """Every remainder 0..7 hits a different TERMINATE type."""
        for size in range(8, 40):
            frame = bytes(i & 0xFF for i in range(size))
            items = decode_blocks(encode_frame(frame))
            assert items[0].frame == frame

    def test_block_count_matches_frame_geometry(self):
        # 1530 wire bytes: 1 START(7) + 190 data(1520) + TERMINATE(3).
        frame = bytes(1530)
        blocks = encode_frame(frame)
        assert len(blocks) == 192

    def test_tiny_frame_rejected(self):
        with pytest.raises(PcsStreamError):
            encode_frame(b"short")

    def test_data_block_outside_frame_rejected(self):
        from repro.phy.blocks import SYNC_DATA
        from tests.wire.blocks import Block66

        with pytest.raises(PcsStreamError):
            decode_blocks([Block66(sync=SYNC_DATA, payload=int.from_bytes(b"12345678", "big"))])

    def test_multiplexed_stream(self):
        tx = PcsTransmitStream()
        message = (0b010 << 53) | 777
        tx.queue_dtp(message)
        frame_a = bytes(range(64))
        frame_b = bytes(range(64, 160))
        tx.send_frame(frame_a)
        tx.send_frame(frame_b)
        tx.send_idle(2)
        frames, messages, mac_view = receive_stream(tx.blocks)
        assert frames == [frame_a, frame_b]
        assert messages == [message]
        assert tx.pending_messages == 0

    def test_mac_view_has_pristine_idles(self):
        """Section 4.2: higher layers never see DTP's bits."""
        tx = PcsTransmitStream()
        tx.queue_dtp(12345)
        tx.send_idle(3)
        _, _, mac_view = receive_stream(tx.blocks)
        for block in mac_view:
            assert block == idle_block()

    def test_dtp_waits_for_idle_slot(self):
        tx = PcsTransmitStream()
        tx.send_frame(bytes(64))  # frame + its mandatory idle
        tx.queue_dtp(42)
        assert tx.pending_messages == 1
        tx.send_idle(1)
        assert tx.pending_messages == 0

    def test_stream_through_scrambler(self):
        """Full wire model: blocks -> scrambled payloads -> descrambled."""
        tx = PcsTransmitStream()
        message = 424242
        tx.queue_dtp(message)
        frame = bytes(range(80))
        tx.send_frame(frame)
        scrambler = Scrambler(state=99)
        descrambler = Scrambler(state=99)
        from tests.wire.blocks import Block66

        wire = [
            Block66(sync=b.sync, payload=scrambler.scramble_word(b.payload))
            for b in tx.blocks
        ]
        recovered = [
            Block66(sync=b.sync, payload=descrambler.descramble_word(b.payload))
            for b in wire
        ]
        frames, messages, _ = receive_stream(recovered)
        assert frames == [frame]
        assert messages == [message]


@given(
    payload=st.binary(min_size=8, max_size=200),
    message=st.one_of(st.none(), st.integers(min_value=1, max_value=(1 << 56) - 1)),
)
@settings(max_examples=50, deadline=None)
def test_property_stream_roundtrip(payload, message):
    tx = PcsTransmitStream()
    if message is not None:
        tx.queue_dtp(message)
    tx.send_frame(payload)
    frames, messages, _ = receive_stream(tx.blocks)
    assert frames == [payload]
    assert messages == ([message] if message is not None else [])
