"""Unit and property tests for the Clause 49 scrambler."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.wire.scrambler import Scrambler, disparity, word_bits


def test_scramble_descramble_roundtrip_same_state():
    tx = Scrambler(state=0x2AAAAAAAAAAAAAA)
    rx = Scrambler(state=0x2AAAAAAAAAAAAAA)
    word = 0xDEADBEEF12345678
    assert rx.descramble_word(tx.scramble_word(word)) == word


def test_descrambler_self_synchronizes():
    """After 58 bits, a receiver with the wrong state decodes correctly."""
    tx = Scrambler(state=(1 << 58) - 1)
    rx = Scrambler(state=0)  # totally wrong initial state
    # One garbage word flushes the register.
    rx.descramble_word(tx.scramble_word(0xFFFFFFFFFFFFFFFF))
    word = 0x0123456789ABCDEF
    assert rx.descramble_word(tx.scramble_word(word)) == word


def test_scrambled_idle_is_not_all_zeros():
    """The whole point: all-zero idles leave the line DC-balanced."""
    tx = Scrambler()
    scrambled = tx.scramble_word(0)
    assert scrambled != 0


def test_scrambled_output_roughly_balanced():
    tx = Scrambler()
    ones = 0
    total = 0
    for _ in range(200):
        word = tx.scramble_word(0)  # worst case input: constant zeros
        ones += sum(word_bits(word, 64))
        total += 64
    assert 0.4 < ones / total < 0.6


def test_dtp_payload_stays_balanced():
    """Embedding DTP counters does not unbalance the line (Section 4.4)."""
    tx = Scrambler()
    ones = 0
    total = 0
    for counter in range(0, 20000, 100):
        word = tx.scramble_word((0b010 << 53) | counter)
        ones += sum(word_bits(word, 64))
        total += 64
    assert 0.45 < ones / total < 0.55


def test_disparity_helper():
    assert disparity([1, 1, 1, 1]) == 4
    assert disparity([0, 0, 0, 0]) == -4
    assert disparity([1, 0, 1, 0]) == 0


def test_word_bits_lsb_first():
    assert word_bits(0b101, 4) == [1, 0, 1, 0]


@given(word=st.integers(min_value=0, max_value=(1 << 64) - 1))
@settings(max_examples=100, deadline=None)
def test_property_roundtrip_any_word(word):
    tx = Scrambler(state=123456789)
    rx = Scrambler(state=123456789)
    assert rx.descramble_word(tx.scramble_word(word)) == word


@given(words=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_property_roundtrip_streams(words):
    tx = Scrambler(state=7)
    rx = Scrambler(state=7)
    for word in words:
        assert rx.descramble_word(tx.scramble_word(word)) == word
