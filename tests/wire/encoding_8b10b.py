"""IEEE 802.3 Clause 36 8b/10b encoding — the 1 GbE PHY (paper Section 7).

1 GbE does not use 64b/66b blocks: every octet becomes a 10-bit code-group
chosen (between two complementary forms) to keep the line's *running
disparity* (RD) balanced.  Idle time is filled with **ordered sets** that
begin with the comma character K28.5, which is what receivers use to find
code-group alignment.

DTP at 1 GbE therefore cannot hide 56-bit messages in one block; Section 7
says "we need to adapt DTP to send clock counter values with the different
encoding".  The adaptation here (:mod:`tests.wire.dtp_1g`) spreads a message
across consecutive DTP ordered sets of two octets each.

The encoder below implements the genuine 5b/6b + 3b/4b tables with running
disparity, the twelve valid control (K) characters, encode/decode of full
octet streams, and code-group error detection.  :class:`CommaAligner`
finds code-group boundaries in a raw bit stream and re-acquires them
after corruption.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


class Encoding8b10bError(ValueError):
    """Raised on invalid inputs or undecodable code-groups."""


# ----------------------------------------------------------------------
# 5b/6b table: EDCBA -> (abcdei for RD-, abcdei for RD+), LSB-first bits
# packed as integers with bit 0 = 'a'.  Values from Clause 36 Table 36-1a.
# Each entry is written as the classical bit string "abcdei".
# ----------------------------------------------------------------------
def _bits(s: str) -> int:
    """Pack a bit string written in transmission order (first bit sent
    first) into an int with bit 0 = first-transmitted bit."""
    value = 0
    for index, char in enumerate(s):
        if char == "1":
            value |= 1 << index
    return value


_5B6B: Dict[int, Tuple[int, int]] = {}


def _d5(code: int, neg: str, pos: str = None) -> None:
    _5B6B[code] = (_bits(neg), _bits(pos if pos is not None else neg))


# D.x: (RD- form, RD+ form) — "abcdei".
_d5(0, "100111", "011000")
_d5(1, "011101", "100010")
_d5(2, "101101", "010010")
_d5(3, "110001")
_d5(4, "110101", "001010")
_d5(5, "101001")
_d5(6, "011001")
_d5(7, "111000", "000111")
_d5(8, "111001", "000110")
_d5(9, "100101")
_d5(10, "010101")
_d5(11, "110100")
_d5(12, "001101")
_d5(13, "101100")
_d5(14, "011100")
_d5(15, "010111", "101000")
_d5(16, "011011", "100100")
_d5(17, "100011")
_d5(18, "010011")
_d5(19, "110010")
_d5(20, "001011")
_d5(21, "101010")
_d5(22, "011010")
_d5(23, "111010", "000101")
_d5(24, "110011", "001100")
_d5(25, "100110")
_d5(26, "010110")
_d5(27, "110110", "001001")
_d5(28, "001110")
_d5(29, "101110", "010001")
_d5(30, "011110", "100001")
_d5(31, "101011", "010100")

# 3b/4b table: HGF -> "fghj" forms.
_3B4B: Dict[int, Tuple[int, int]] = {
    0: (_bits("1011"), _bits("0100")),
    1: (_bits("1001"), _bits("1001")),
    2: (_bits("0101"), _bits("0101")),
    3: (_bits("1100"), _bits("0011")),
    4: (_bits("1101"), _bits("0010")),
    5: (_bits("1010"), _bits("1010")),
    6: (_bits("0110"), _bits("0110")),
    7: (_bits("1110"), _bits("0001")),  # D.x.7 primary
}
#: Alternate D.x.A7 form, used to avoid runs of five (Clause 36 rules).
_3B4B_A7 = (_bits("0111"), _bits("1000"))

#: The twelve valid control characters Kx.y, as (x, y) -> ("abcdei","fghj")
#: for RD-; the RD+ form is the complement.
_K_CODES: Dict[int, Tuple[int, int]] = {}


def _k(code: int, abcdei: str, fghj: str) -> None:
    _K_CODES[code] = (_bits(abcdei), _bits(fghj))


_k(0x1C, "001111", "0100")  # K28.0
_k(0x3C, "001111", "1001")  # K28.1
_k(0x5C, "001111", "0101")  # K28.2
_k(0x7C, "001111", "0011")  # K28.3
_k(0x9C, "001111", "0010")  # K28.4
_k(0xBC, "001111", "1010")  # K28.5 — the comma
_k(0xDC, "001111", "0110")  # K28.6
_k(0xFC, "001111", "1000")  # K28.7
_k(0xF7, "111010", "1000")  # K23.7
_k(0xFB, "110110", "1000")  # K27.7
_k(0xFD, "101110", "1000")  # K29.7
_k(0xFE, "011110", "1000")  # K30.7

K28_5 = 0xBC
K28_1 = 0x3C
K23_7 = 0xF7  # /R/ carrier extend
K27_7 = 0xFB  # /S/ start of packet
K29_7 = 0xFD  # /T/ end of packet

#: The comma pattern (bits "0011111" or its complement) that receivers
#: align on; present only in K28.1, K28.5, K28.7.
COMMA_CODES = (0x3C, 0xBC, 0xFC)


def _popcount(value: int) -> int:
    return bin(value).count("1")


def _disparity_choice(rd: int, neg_form: int, pos_form: int, nbits: int) -> Tuple[int, int]:
    """Pick the sub-block form for the current RD; return (form, new_rd)."""
    form = neg_form if rd < 0 else pos_form
    ones = _popcount(form)
    zeros = nbits - ones
    if ones != zeros:
        rd = -rd
    return form, rd


class Encoder8b10b:
    """Stateful 8b/10b encoder with running disparity."""

    def __init__(self) -> None:
        self.rd = -1  # transmitters start at RD-

    def encode(self, octet: int, control: bool = False) -> int:
        """Encode one octet into a 10-bit code-group (bit 0 sent first)."""
        if not 0 <= octet <= 0xFF:
            raise Encoding8b10bError(f"octet {octet!r} out of range")
        if control:
            if octet not in _K_CODES:
                raise Encoding8b10bError(f"{octet:#04x} is not a valid K code")
            abcdei_neg, fghj_neg = _K_CODES[octet]
            if self.rd < 0:
                abcdei, fghj = abcdei_neg, fghj_neg
            else:
                abcdei = (~abcdei_neg) & 0x3F
                fghj = (~fghj_neg) & 0xF
            group = abcdei | (fghj << 6)
            ones = _popcount(group)
            if ones != 5:
                self.rd = -self.rd
            return group

        low5 = octet & 0x1F
        high3 = octet >> 5
        abcdei, rd_mid = _disparity_choice(self.rd, *_5B6B[low5], nbits=6)
        neg4, pos4 = _3B4B[high3]
        if high3 == 7:
            # Use the alternate A7 form when the primary would create a
            # run of five identical bits across the sub-block boundary.
            use_a7 = (rd_mid < 0 and low5 in (17, 18, 20)) or (
                rd_mid > 0 and low5 in (11, 13, 14)
            )
            if use_a7:
                neg4, pos4 = _3B4B_A7
        fghj, rd_out = _disparity_choice(rd_mid, neg4, pos4, nbits=4)
        self.rd = rd_out
        return abcdei | (fghj << 6)


class Decoder8b10b:
    """Stateful decoder with code-group validation."""

    def __init__(self) -> None:
        self.rd = -1
        self._data_lut: Dict[int, int] = {}
        self._ctrl_lut: Dict[int, int] = {}
        self._build_luts()

    def _build_luts(self) -> None:
        # Enumerate every legal code-group by running an encoder from both
        # disparities over every input.
        for octet in range(256):
            for rd in (-1, 1):
                encoder = Encoder8b10b()
                encoder.rd = rd
                group = encoder.encode(octet)
                existing = self._data_lut.get(group)
                if existing is not None and existing != octet:
                    raise Encoding8b10bError(
                        f"LUT collision: group {group:#05x} for "
                        f"{existing:#04x} and {octet:#04x}"
                    )
                self._data_lut[group] = octet
        for code in _K_CODES:
            for rd in (-1, 1):
                encoder = Encoder8b10b()
                encoder.rd = rd
                group = encoder.encode(code, control=True)
                self._ctrl_lut[group] = code

    def decode(self, group: int) -> Tuple[int, bool]:
        """Decode a 10-bit group to (octet, is_control).

        Control groups take precedence (no data group shares a comma
        pattern).  Raises on invalid groups — the 1 GbE equivalent of a
        bit error surfacing as a code violation.
        """
        if not 0 <= group < (1 << 10):
            raise Encoding8b10bError("code-group must be 10 bits")
        ones = _popcount(group)
        if abs(ones - 5) > 1:
            raise Encoding8b10bError(f"invalid disparity in group {group:#05x}")
        if group in self._ctrl_lut:
            self._update_rd(group)
            return self._ctrl_lut[group], True
        if group in self._data_lut:
            self._update_rd(group)
            return self._data_lut[group], False
        raise Encoding8b10bError(f"invalid code-group {group:#05x}")

    def _update_rd(self, group: int) -> None:
        ones = _popcount(group)
        if ones != 5:
            self.rd = -self.rd

    def contains_comma(self, group: int) -> bool:
        """True when the group carries the 7-bit comma alignment pattern."""
        return (group & 0x7F) in (COMMA_NEG, COMMA_POS)


# ----------------------------------------------------------------------
# Comma alignment: finding code-group boundaries in a raw bit stream.
# ----------------------------------------------------------------------

#: Comma patterns in transmission order (first-sent bit = bit 0): the
#: 7-bit singular sequence receivers align code-group boundaries on.
COMMA_NEG = _bits("0011111")
COMMA_POS = _bits("1100000")

#: Spec bound for 8b/10b re-acquisition: after an arbitrary corrupt
#: prefix, this many clean comma-bearing ordered sets (comma + data
#: group) suffice to restore alignment *and* absolute running disparity.
#: The first comma fixes both (its polarity encodes the line RD); the
#: second confirms the boundary held for a full set.  The hypothesis
#: property test in ``tests/test_8b10b.py`` enforces the bound.
REALIGN_GOOD_GROUPS = 2


class CommaAligner:
    """Bit-stream alignment state machine for the 8b/10b decoder.

    :class:`Decoder8b10b` validates individual 10-bit groups but holds no
    stream state; a real receiver must first find group boundaries (by
    hunting the singular comma pattern) and recover the absolute running
    disparity.  This wrapper does both: feed it raw bits in transmission
    order and it emits decoded ``(octet, is_control)`` pairs once
    aligned.  A code violation drops alignment again (the conservative
    Clause 36 reading — good enough for link supervision, which only
    needs a monotone error counter and an ``aligned`` flag).

    The comma's polarity pins disparity absolutely: ``0011111`` is the
    RD- form of K28.x's six-bit block, so the decoder's RD is *set* (not
    inferred) whenever a comma group is consumed.
    """

    #: Bits retained while hunting so a comma spanning the previous
    #: buffer boundary is never missed (pattern length minus one).
    _HUNT_TAIL = 6

    def __init__(self, decoder: Decoder8b10b = None) -> None:
        self.decoder = decoder if decoder is not None else Decoder8b10b()
        self.aligned = False
        #: Bits discarded while hunting for a comma.
        self.slips = 0
        #: Alignment acquisitions (first lock and every re-lock).
        self.realigns = 0
        #: Cumulative groups consumed while aligned.
        self.groups_seen = 0
        #: Cumulative code violations (each also drops alignment).
        self.decode_errors = 0
        self._bits: List[int] = []

    def push_bits(self, bits: Iterable[int]) -> List[Tuple[int, bool]]:
        """Consume raw bits; return code-groups decoded along the way."""
        self._bits.extend(1 if b else 0 for b in bits)
        decoded: List[Tuple[int, bool]] = []
        while True:
            if not self.aligned and not self._hunt():
                return decoded
            if len(self._bits) < 10:
                return decoded
            group = 0
            for index in range(10):
                group |= self._bits[index] << index
            del self._bits[:10]
            if self.decoder.contains_comma(group):
                # Comma polarity re-anchors absolute running disparity.
                self.decoder.rd = -1 if (group & 0x7F) == COMMA_NEG else 1
            self.groups_seen += 1
            try:
                decoded.append(self.decoder.decode(group))
            except Encoding8b10bError:
                self.decode_errors += 1
                self.aligned = False
                # A phantom comma (corrupt bits fused with a real group's
                # leading bits) can lock the boundary early, and the
                # genuine comma may then sit *inside* the group that
                # finally violates.  Re-hunt over the violating group's
                # own bits — slipping exactly one so a comma-bearing but
                # invalid group can't re-lock the same boundary forever.
                self._bits[0:0] = [(group >> i) & 1 for i in range(1, 10)]
                self.slips += 1

    def _hunt(self) -> bool:
        """Scan buffered bits for a comma; align the boundary on it."""
        bits = self._bits
        limit = len(bits) - 7
        for start in range(limit + 1):
            window = 0
            for offset in range(7):
                window |= bits[start + offset] << offset
            if window in (COMMA_NEG, COMMA_POS):
                self.slips += start
                del bits[:start]
                self.aligned = True
                self.realigns += 1
                return True
        # No comma: keep only the tail that could still start one.
        drop = len(bits) - self._HUNT_TAIL
        if drop > 0:
            self.slips += drop
            del bits[:drop]
        return False
