"""Tests for block synchronization and the parameter sweeps."""

from tests.wire.block_sync import (
    HI_BER_THRESHOLD,
    LOCK_THRESHOLD,
    BlockSync,
    blocks_to_bitstream,
    headers_from_bitstream,
)
from tests.wire.blocks import idle_block


class TestBlockSync:
    def test_locks_after_64_valid_headers(self):
        sync = BlockSync()
        for index in range(LOCK_THRESHOLD):
            locked = sync.push_header(0b01)
            assert locked == (index == LOCK_THRESHOLD - 1)
        assert sync.locked

    def test_invalid_header_resets_acquisition(self):
        sync = BlockSync()
        for _ in range(LOCK_THRESHOLD - 1):
            sync.push_header(0b10)
        sync.push_header(0b00)  # invalid: slip
        assert not sync.locked
        assert sync.slips == 1
        for _ in range(LOCK_THRESHOLD):
            sync.push_header(0b10)
        assert sync.locked

    def test_hi_ber_drops_lock(self):
        sync = BlockSync()
        sync.push_stream([0b01] * LOCK_THRESHOLD)
        assert sync.locked
        sync.push_stream([0b11] * HI_BER_THRESHOLD)
        assert not sync.locked
        assert sync.hi_ber

    def test_occasional_errors_keep_lock(self):
        sync = BlockSync()
        sync.push_stream([0b01] * LOCK_THRESHOLD)
        pattern = ([0b01] * 2000 + [0b00]) * 10  # 1 bad header per 2000
        sync.push_stream(pattern)
        assert sync.locked
        assert not sync.hi_ber

    def test_relock_after_hi_ber(self):
        sync = BlockSync()
        sync.push_stream([0b01] * LOCK_THRESHOLD)
        sync.push_stream([0b00] * HI_BER_THRESHOLD)
        assert not sync.locked
        sync.push_stream([0b01] * LOCK_THRESHOLD)
        assert sync.locked

    def test_aligned_bitstream_locks(self):
        blocks = [idle_block().to_int()] * 100
        headers = headers_from_bitstream(blocks_to_bitstream(blocks))
        sync = BlockSync()
        states = sync.push_stream(headers)
        assert states[-1] is True

    def test_misaligned_bitstream_does_not_lock(self):
        """With a bit slip the '10' headers land on scrambler-ish payload
        positions; all-idle payloads are zeros, so headers read 00."""
        blocks = [idle_block().to_int()] * 100
        bits = blocks_to_bitstream(blocks)
        headers = headers_from_bitstream(bits, offset=7)
        sync = BlockSync()
        sync.push_stream(headers)
        assert not sync.locked


class TestSweeps:
    def test_beacon_vs_skew_within_bound(self, quick_run, assert_claims):
        assert_claims("sweeps/beacon-skew-within-4")
        table = quick_run("sweeps")["sweep-beacon-vs-skew"].summary["table"]
        assert len(table) == 4  # a header, then one row per beacon interval

    def test_cable_length_sweep(self, assert_claims):
        assert_claims("sweeps/cable-within-5", "sweeps/integer-cable-within-4")

    def test_ber_sweep(self, assert_claims):
        assert_claims("sweeps/ber-within-4")


# ----------------------------------------------------------------------
# Relock recovery property (Clause 49 block lock)
# ----------------------------------------------------------------------
import random

from hypothesis import given, settings
from hypothesis import strategies as st

VALID_HEADERS = (0b01, 0b10)


def _first_lock_index(headers):
    """Oracle: index completing the first LOCK_THRESHOLD-valid run."""
    run = 0
    for index, header in enumerate(headers):
        if header in VALID_HEADERS:
            run += 1
            if run >= LOCK_THRESHOLD:
                return index
        else:
            run = 0
    return None


def _ber_headers(count, ber, seed):
    """A clean alternating header stream with per-bit flips at ``ber``."""
    rng = random.Random(seed)
    headers = []
    for index in range(count):
        header = VALID_HEADERS[index % 2]
        for bit in (0, 1):
            if ber and rng.random() < ber:
                header ^= 1 << bit
        headers.append(header)
    return headers


@given(
    prefix=st.lists(st.integers(min_value=0, max_value=3), max_size=200),
    ber=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 5e-2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_property_relock_after_corrupt_prefix(prefix, ber, seed):
    """After any corrupt header prefix, BlockSync regains lock exactly
    when the windowed header rule allows: at the first run of
    LOCK_THRESHOLD consecutive valid headers in the post-prefix stream,
    across the swept BER range."""
    sync = BlockSync()
    # An arbitrary prefix, ended with a guaranteed-invalid header so the
    # acquisition run always restarts from zero at the stream boundary.
    sync.push_stream(list(prefix) + [0b00])
    assert not sync.locked
    stream = _ber_headers(1000, ber, seed)
    states = sync.push_stream(stream)
    oracle = _first_lock_index(stream)
    if oracle is None:
        assert True not in states
    else:
        assert states.index(True) == oracle


def test_relock_sweep_across_ber():
    """Deterministic sweep: lock latency degrades monotonically-ish with
    BER but the rule ("64 consecutive valid headers") never changes."""
    for ber in (0.0, 1e-4, 1e-3, 1e-2):
        sync = BlockSync()
        sync.push_stream([0b11] * 10)  # corrupt prefix
        stream = _ber_headers(5000, ber, seed=1234)
        states = sync.push_stream(stream)
        oracle = _first_lock_index(stream)
        assert oracle is not None  # 5000 headers always contain a run
        assert states.index(True) == oracle
        assert sync.headers_seen == 10 + 5000
