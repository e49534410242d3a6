"""Bit-error injection (IEEE 802.3 BER objective: 1e-12).

Section 3.2 of the paper: a corrupted bit can coincide with a DTP message
and produce a wildly wrong remote counter, so DTP (a) ignores messages whose
counter is off by more than eight or has errors outside the three LSBs, and
(b) can protect the three LSBs with a parity bit.  This module supplies the
fault injector that those defenses are tested against.
"""

from __future__ import annotations

import math
import random


class BitErrorInjector:
    """Flips wire bits with a configurable bit error rate.

    Sampling every bit individually would be absurdly slow at 1e-12, so the
    injector draws geometric gaps between errors and keeps a countdown of
    bits until the next error.
    """

    def __init__(self, ber: float, rng: random.Random) -> None:
        if not 0.0 <= ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        self.ber = ber
        self.rng = rng
        self.errors_injected = 0
        self._bits_until_error = self._draw_gap() if ber > 0.0 else None

    def _draw_gap(self) -> int:
        # Geometric distribution: number of good bits before the next error.
        u = self.rng.random()
        if self.ber <= 0.0:
            return 1 << 62
        return int(math.log(max(u, 1e-300)) / math.log1p(-self.ber))

    def corrupt(self, word: int, nbits: int) -> int:
        """Pass ``nbits`` of ``word`` through the channel, flipping errors."""
        if self._bits_until_error is None:
            return word
        remaining = nbits
        offset = 0
        while self._bits_until_error < remaining:
            position = offset + self._bits_until_error
            word ^= 1 << position
            self.errors_injected += 1
            remaining -= self._bits_until_error + 1
            offset = position + 1
            self._bits_until_error = self._draw_gap()
        self._bits_until_error -= remaining
        return word


def parity_of_lsbs(value: int, nbits: int = 3) -> int:
    """Even parity over the ``nbits`` least significant bits (Section 3.2)."""
    parity = 0
    for i in range(nbits):
        parity ^= (value >> i) & 1
    return parity
