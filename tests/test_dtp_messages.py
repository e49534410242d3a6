"""Unit and property tests for the DTP message layout and counter helpers.

A message's 56 bits are ``SHIFTED_TYPE[mtype] | payload``; the receiving
port reads the type back through ``TYPE_TABLE``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtp import messages as m


def _decode(bits56):
    """What ``DtpPort._process`` reads from 56 bits: (type, payload)."""
    return m.TYPE_TABLE[bits56 >> m.PAYLOAD_BITS], bits56 & m.PAYLOAD_MASK


class TestEncodeDecode:
    def test_roundtrip_each_type(self):
        for mtype in m.MessageType:
            bits = m.SHIFTED_TYPE[mtype] | 0x1ABCDEF012345
            assert _decode(bits) == (mtype, 0x1ABCDEF012345)

    def test_encode_layout(self):
        bits = m.SHIFTED_TYPE[m.MessageType.BEACON] | 1
        assert bits >> 53 == int(m.MessageType.BEACON)
        assert bits & ((1 << 53) - 1) == 1

    def test_fits_in_56_bits(self):
        assert m.SHIFTED_TYPE[m.MessageType.LOG] | m.PAYLOAD_MASK < (1 << 56)

    def test_unknown_type_code_rejected(self):
        # Codes 6 and 7 are unassigned: the port drops them as undecodable.
        assert m.TYPE_TABLE[6] is None and m.TYPE_TABLE[7] is None
        assert _decode((0b111 << 53) | 5) == (None, 5)


class TestCounterHelpers:
    def test_counter_low_masks(self):
        counter = (0xABC << 53) | 0x123
        assert m.counter_low(counter) == 0x123

    def test_counter_high(self):
        counter = (0xABC << 53) | 0x123
        assert m.counter_high(counter) == 0xABC

    def test_reconstruct_exact(self):
        counter = 123_456_789_000
        assert m.reconstruct_counter(m.counter_low(counter), counter) == counter

    def test_reconstruct_near_reference(self):
        counter = 10**15
        reference = counter + 500  # receiver slightly ahead
        assert m.reconstruct_counter(m.counter_low(counter), reference) == counter

    def test_reconstruct_across_wrap(self):
        counter = (1 << 53) + 5  # just wrapped
        reference = (1 << 53) - 3  # receiver just before the wrap
        low = m.counter_low(counter)
        assert m.reconstruct_counter(low, reference) == counter

    def test_reconstruct_backward_wrap(self):
        counter = (1 << 53) - 3
        reference = (1 << 53) + 5
        low = m.counter_low(counter)
        assert m.reconstruct_counter(low, reference) == counter

    def test_wrap_takes_667_days(self):
        """Section 4.4: 53 bits of 6.4 ns ticks last about 667 days."""
        seconds = (1 << 53) * 6.4e-9
        days = seconds / 86400
        assert 650 < days < 680


class TestParity:
    def test_payload_with_parity_roundtrip(self):
        counter = 0b1011
        payload = m.payload_with_parity(counter)
        assert m.check_parity(payload)
        assert m.parity_counter_field(payload) == counter

    def test_parity_detects_lsb_flip(self):
        payload = m.payload_with_parity(0b101)
        corrupted = payload ^ 0b001
        assert not m.check_parity(corrupted)

    def test_parity_bit_position(self):
        # All-zero counter: parity 0; flipping one LSB makes parity wrong.
        payload = m.payload_with_parity(0)
        assert payload == 0
        assert not m.check_parity(payload ^ 1)


@given(
    mtype=st.sampled_from(list(m.MessageType)),
    payload=st.integers(min_value=0, max_value=(1 << 53) - 1),
)
@settings(max_examples=200, deadline=None)
def test_property_codec_roundtrip(mtype, payload):
    assert _decode(m.SHIFTED_TYPE[mtype] | payload) == (mtype, payload)


@given(
    counter=st.one_of(
        st.integers(min_value=0, max_value=(1 << 80)),
        st.integers(),
        st.integers(max_value=-1),
        st.integers(min_value=1 << 106, max_value=1 << 200),
    ),
    drift=st.one_of(
        st.just(0), st.integers(min_value=-(1 << 20), max_value=1 << 20)
    ),
)
@settings(max_examples=300, deadline=None)
def test_property_reconstruct_recovers_counter(counter, drift):
    """Any reference within +/-2^20 of the true counter reconstructs it, for
    every Python int: negative, and past the 106-bit counter width too.

    At ``drift == 0`` this is the self round trip
    ``reconstruct_counter(counter_low(c), c) == c`` -- why the invariant
    checker runs no per-node wrap-codec check, only the cross-node one.
    """
    reference = counter + drift
    assert m.reconstruct_counter(m.counter_low(counter), reference) == counter


@st.composite
def _field_and_reference(draw):
    bits = draw(st.sampled_from([m.COUNTER_LOW_BITS, m.PARITY_PAYLOAD_BITS, 4, 1]))
    modulus = 1 << bits
    reference = draw(st.one_of(
        st.just(0),
        st.integers(max_value=-1),
        st.integers(min_value=1 << 106, max_value=1 << 200),
        st.integers(),
    ))
    # Any field value, or one that lands on the window's edges: reference
    # +/- half and one inside them.
    low = draw(st.one_of(
        st.integers(min_value=0, max_value=modulus - 1),
        st.sampled_from([reference + offset for offset in (
            -(modulus >> 1), -(modulus >> 1) + 1, (modulus >> 1) - 1, modulus >> 1,
        )]).map(lambda value: value % modulus),
    ))
    return bits, low, reference


@given(case=_field_and_reference())
@settings(max_examples=300, deadline=None)
def test_property_reconstruct_is_the_spec(case):
    """The result is the unique value congruent to ``low`` (mod 2^bits) in
    ``[reference - half, reference + half)``."""
    bits, low, reference = case
    modulus, half = 1 << bits, 1 << (bits - 1)
    value = m.reconstruct_counter(low, reference, bits=bits)
    assert (value - low) % modulus == 0
    assert reference - half <= value < reference + half


@given(counter=st.integers(min_value=0, max_value=(1 << 52) - 1))
@settings(max_examples=100, deadline=None)
def test_property_parity_roundtrip(counter):
    payload = m.payload_with_parity(counter)
    assert m.check_parity(payload)
    assert m.parity_counter_field(payload) == counter
