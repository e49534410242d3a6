"""Grand wire-level validation: every PHY layer composed end to end.

MAC frames (CRC-32) and DTP messages are multiplexed into a Clause 49
block stream, scrambled, serialized to bits, pushed through a noisy
channel, block-locked, deserialized, descrambled and decoded.  The checks:

* clean channel: every frame FCS-verifies bit-exact, every DTP message
  arrives, the MAC-visible stream shows pristine idles;
* noisy channel: corrupted frames are *caught by the FCS* (never accepted
  silently), corrupted DTP counters would be caught by the ±8 filter, and
  the block-lock state machine rides through isolated header errors.
"""

import random


from repro.dtp.messages import SHIFTED_TYPE, MessageType
from tests.wire.block_sync import BlockSync, blocks_to_bitstream
from tests.wire.mac import MacFrame, address
from tests.wire.blocks import Block66, extract_bits_from_idle
from tests.wire.pcs_stream import PcsTransmitStream, receive_stream
from tests.wire.scrambler import Scrambler


def build_tx_stream(num_frames: int, rng: random.Random):
    """Frames + interleaved DTP beacons, as block list + expectations."""
    tx = PcsTransmitStream()
    frames = []
    messages = []
    for index in range(num_frames):
        message = SHIFTED_TYPE[MessageType.BEACON] | rng.getrandbits(53)
        tx.queue_dtp(message)
        messages.append(message)
        frame = MacFrame(
            destination=address("aa:bb:cc:dd:ee:ff"),
            source=address("02:00:00:00:00:01"),
            ethertype=0x88B5,
            payload=bytes(rng.getrandbits(8) for _ in range(rng.randint(46, 400))),
        )
        frames.append(frame)
        tx.send_frame(frame.wire_bytes())
        tx.send_idle(rng.randint(0, 3))
    return tx.blocks, frames, messages


def through_wire(blocks, flip_bits=(), scramble=True):
    """Scramble -> bit-serialize -> (flip) -> parse -> descramble."""
    tx_scrambler = Scrambler(state=12345)
    wire_blocks = []
    for block in blocks:
        payload = (
            tx_scrambler.scramble_word(block.payload) if scramble else block.payload
        )
        wire_blocks.append((block.sync << 64) | payload)
    bits = blocks_to_bitstream(wire_blocks)
    for position in flip_bits:
        bits[position] ^= 1
    # Receiver: block lock on headers, then reassemble blocks.
    sync = BlockSync()
    sync.push_stream([0b01] * 64)  # training: already locked links
    assert sync.locked
    rx_scrambler = Scrambler(state=12345)
    recovered = []
    for i in range(0, len(bits), 66):
        word = 0
        for bit in bits[i : i + 66]:
            word = (word << 1) | bit
        header = word >> 64
        sync.push_header(header)
        payload = word & ((1 << 64) - 1)
        payload = rx_scrambler.descramble_word(payload) if scramble else payload
        if header in (0b01, 0b10):
            recovered.append(Block66(sync=header, payload=payload))
    return recovered, sync


class TestCleanChannel:
    def test_everything_roundtrips(self):
        rng = random.Random(1)
        blocks, frames, messages = build_tx_stream(10, rng)
        recovered, sync = through_wire(blocks)
        assert sync.locked
        rx_frames, rx_messages, mac_view = receive_stream(recovered)
        assert rx_messages == messages
        assert len(rx_frames) == len(frames)
        for wire, original in zip(rx_frames, frames):
            parsed = MacFrame.parse_wire(
                wire, original_payload_len=len(original.payload)
            )
            assert parsed == original  # FCS verified, bit-exact
        for block in mac_view:
            if block.is_idle:
                assert extract_bits_from_idle(block) == 0

    def test_without_scrambler_also_roundtrips(self):
        rng = random.Random(2)
        blocks, frames, messages = build_tx_stream(4, rng)
        recovered, _ = through_wire(blocks, scramble=False)
        rx_frames, rx_messages, _ = receive_stream(recovered)
        assert rx_messages == messages
        assert len(rx_frames) == len(frames)


class TestNoisyChannel:
    def test_frame_corruption_caught_by_fcs(self):
        rng = random.Random(3)
        blocks, frames, messages = build_tx_stream(3, rng)
        # Flip one payload bit inside the second block (a frame data bit;
        # block 0 is the first frame's START block).
        flip = 1 * 66 + 30
        recovered, _ = through_wire(blocks, flip_bits=(flip,))
        rx_frames, _, _ = receive_stream(recovered)
        corrupted = 0
        for wire, original in zip(rx_frames, frames):
            try:
                parsed = MacFrame.parse_wire(
                    wire, original_payload_len=len(original.payload)
                )
                assert parsed == original
            except Exception:
                corrupted += 1
        assert corrupted == 1  # caught, not silently accepted

    def test_scrambler_error_multiplication_still_caught(self):
        """A single wire flip hits the descrambler taps and multiplies to
        up to three payload errors — all inside one frame, all caught."""
        rng = random.Random(4)
        blocks, frames, _ = build_tx_stream(2, rng)
        flip = 2 * 66 + 10
        recovered, _ = through_wire(blocks, flip_bits=(flip,))
        rx_frames, _, _ = receive_stream(recovered)
        failures = 0
        for wire, original in zip(rx_frames, frames):
            try:
                MacFrame.parse_wire(wire, original_payload_len=len(original.payload))
            except Exception:
                failures += 1
        assert failures >= 1

    def test_header_corruption_detected_by_block_sync(self):
        rng = random.Random(5)
        blocks, _, _ = build_tx_stream(2, rng)
        # Flip a sync-header bit: that block's header becomes invalid.
        recovered, sync = through_wire(blocks, flip_bits=(0,))
        assert sync.locked  # one bad header does not drop the link
        # But the block itself vanished from the recovered stream.
        assert len(recovered) == len(blocks) - 1

    def test_many_header_errors_raise_hi_ber_then_relock(self):
        rng = random.Random(6)
        blocks, _, _ = build_tx_stream(6, rng)
        flips = tuple(i * 66 for i in range(20))  # 20 broken headers
        _, sync = through_wire(blocks, flip_bits=flips)
        assert sync.hi_ber_events >= 1  # the burst dropped the lock...
        assert sync.locked  # ...and the clean tail re-acquired it
