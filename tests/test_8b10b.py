"""Unit and property tests for the 8b/10b codec (1 GbE PHY)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.wire.encoding_8b10b import COMMA_CODES, Decoder8b10b, Encoder8b10b, Encoding8b10bError, K28_5


@pytest.fixture(scope="module")
def decoder():
    return Decoder8b10b()  # LUT construction is mildly expensive


class TestEncoder:
    def test_every_octet_roundtrips_from_rd_minus(self, decoder):
        for octet in range(256):
            encoder = Encoder8b10b()
            group = encoder.encode(octet)
            value, is_control = Decoder8b10b().decode(group)
            assert (value, is_control) == (octet, False)

    def test_every_octet_roundtrips_from_rd_plus(self):
        for octet in range(256):
            encoder = Encoder8b10b()
            encoder.rd = 1
            group = encoder.encode(octet)
            value, is_control = Decoder8b10b().decode(group)
            assert (value, is_control) == (octet, False)

    def test_all_k_codes_roundtrip(self):
        for code in (0x1C, 0x3C, 0x5C, 0x7C, 0x9C, 0xBC, 0xDC, 0xFC, 0xF7, 0xFB, 0xFD, 0xFE):
            for rd in (-1, 1):
                encoder = Encoder8b10b()
                encoder.rd = rd
                group = encoder.encode(code, control=True)
                value, is_control = Decoder8b10b().decode(group)
                assert (value, is_control) == (code, True)

    def test_invalid_k_code_rejected(self):
        with pytest.raises(Encoding8b10bError):
            Encoder8b10b().encode(0x00, control=True)

    def test_octet_range_enforced(self):
        with pytest.raises(Encoding8b10bError):
            Encoder8b10b().encode(256)

    def test_groups_have_legal_disparity(self):
        """Every code-group has 4, 5 or 6 ones — never worse."""
        encoder = Encoder8b10b()
        for octet in range(256):
            group = encoder.encode(octet)
            ones = bin(group).count("1")
            assert 4 <= ones <= 6

    def test_running_disparity_bounded(self):
        """Cumulative line disparity never exceeds +/-2 at group edges."""
        encoder = Encoder8b10b()
        rng = random.Random(7)
        disparity = 0
        for _ in range(20_000):
            group = encoder.encode(rng.randrange(256))
            disparity += 2 * bin(group).count("1") - 10
            assert abs(disparity) <= 2

    def test_disparity_bounded_with_k_codes_interleaved(self):
        encoder = Encoder8b10b()
        rng = random.Random(8)
        disparity = 0
        for index in range(5_000):
            if index % 5 == 0:
                group = encoder.encode(K28_5, control=True)
            else:
                group = encoder.encode(rng.randrange(256))
            disparity += 2 * bin(group).count("1") - 10
            assert abs(disparity) <= 2


class TestDecoder:
    def test_rejects_garbage_groups(self, decoder):
        with pytest.raises(Encoding8b10bError):
            decoder.decode(0b1111111111)  # disparity 10: impossible

    def test_rejects_out_of_range(self, decoder):
        with pytest.raises(Encoding8b10bError):
            decoder.decode(1 << 10)

    def test_comma_only_in_comma_codes(self, decoder):
        for code in COMMA_CODES:
            encoder = Encoder8b10b()
            group = encoder.encode(code, control=True)
            assert decoder.contains_comma(group)

    def test_data_groups_lack_comma(self, decoder):
        encoder = Encoder8b10b()
        for octet in range(256):
            group = encoder.encode(octet)
            assert not decoder.contains_comma(group)

    def test_bit_flip_usually_detected_or_misdecodes(self, decoder):
        """A flipped bit either fails validation or decodes to a different
        value — it can never silently decode to the original."""
        encoder = Encoder8b10b()
        group = encoder.encode(0x55)
        for bit in range(10):
            corrupted = group ^ (1 << bit)
            try:
                value, is_control = Decoder8b10b().decode(corrupted)
            except Encoding8b10bError:
                continue
            assert (value, is_control) != (0x55, False) or corrupted == group


@given(octets=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=64))
@settings(max_examples=50, deadline=None)
def test_property_stream_roundtrip(octets):
    encoder = Encoder8b10b()
    decoder = Decoder8b10b()
    for octet in octets:
        group = encoder.encode(octet)
        value, is_control = decoder.decode(group)
        assert value == octet
        assert not is_control


# ----------------------------------------------------------------------
# Comma alignment recovery (tests.wire.encoding_8b10b.CommaAligner)
# ----------------------------------------------------------------------
def _group_bits(group):
    """A 10-bit code-group in transmission order (bit 0 first)."""
    return [(group >> i) & 1 for i in range(10)]


def _ordered_sets(octets, start_rd):
    """K28.5 + data ordered sets, encoded with the given starting RD."""
    encoder = Encoder8b10b()
    encoder.rd = start_rd
    sets = []
    for octet in octets:
        sets.append(
            [encoder.encode(K28_5, control=True), encoder.encode(octet)]
        )
    return sets


@given(
    prefix=st.lists(st.integers(min_value=0, max_value=1), max_size=173),
    octets=st.lists(
        st.integers(min_value=0, max_value=255), min_size=4, max_size=12
    ),
    rd_plus=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_property_realign_after_corrupt_prefix(prefix, octets, rd_plus):
    """After an arbitrary corrupt bit prefix, REALIGN_GOOD_GROUPS clean
    comma-bearing ordered sets restore alignment *and* absolute running
    disparity — every later group decodes exactly (the spec'd
    re-acquisition bound)."""
    from tests.wire.encoding_8b10b import REALIGN_GOOD_GROUPS, CommaAligner

    sets = _ordered_sets(octets, 1 if rd_plus else -1)
    aligner = CommaAligner()
    aligner.push_bits(prefix)
    # The re-acquisition budget: the first REALIGN_GOOD_GROUPS sets may
    # decode as garbage (or not at all) while the comma hunt converges.
    for ordered_set in sets[:REALIGN_GOOD_GROUPS]:
        for group in ordered_set:
            aligner.push_bits(_group_bits(group))
    assert aligner.aligned
    # Past the budget the stream must decode verbatim, which also proves
    # the decoder's running disparity was re-anchored absolutely.
    decoded = []
    for ordered_set in sets[REALIGN_GOOD_GROUPS:]:
        for group in ordered_set:
            decoded.extend(aligner.push_bits(_group_bits(group)))
    expected = []
    for octet in octets[REALIGN_GOOD_GROUPS:]:
        expected.extend([(K28_5, True), (octet, False)])
    assert decoded == expected


def test_aligner_counts_slips_and_realigns():
    from tests.wire.encoding_8b10b import CommaAligner

    sets = _ordered_sets([0x55, 0xAA, 0x0F], start_rd=-1)
    aligner = CommaAligner()
    aligner.push_bits([1, 0, 1])  # junk: slipped during the hunt
    for ordered_set in sets:
        for group in ordered_set:
            aligner.push_bits(_group_bits(group))
    assert aligner.aligned
    assert aligner.realigns >= 1
    assert aligner.slips >= 3
    assert aligner.decode_errors == 0
