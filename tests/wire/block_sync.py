"""Clause 49 block synchronization (lock) state machine.

Before a receiver can interpret 66-bit blocks it must find their
boundaries: it slips bit-by-bit until 64 consecutive candidate blocks have
valid sync headers (01 or 10), at which point it declares **block_lock**.
While locked it counts invalid headers in 125 us windows; 16 or more
trigger ``hi_ber`` (and DTP, like everything else, is blind until the
link re-locks).

The timing simulation assumes locked links (the paper measures steady
state); this model exists so the lock/slip behaviour is testable against
bit-slipped and noisy streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

SYNC_VALID = (0b01, 0b10)

#: Consecutive valid headers required to assert lock (sh_cnt in 802.3).
LOCK_THRESHOLD = 64

#: Invalid headers within a window that deassert lock / raise hi_ber.
HI_BER_THRESHOLD = 16

#: Window length in blocks (125 us at 10GbE ~ 19531 blocks; rounded).
HI_BER_WINDOW_BLOCKS = 19_531


@dataclass
class BlockSync:
    """Receive-side block synchronizer."""

    locked: bool = False
    hi_ber: bool = False
    slips: int = 0
    #: Cumulative count of hi_ber episodes (hi_ber itself clears on relock).
    hi_ber_events: int = 0
    #: Cumulative headers observed / found invalid (monotone counters).
    headers_seen: int = 0
    invalid_headers: int = 0
    _valid_run: int = 0
    _window_blocks: int = 0
    _window_invalid: int = 0

    def push_header(self, sync_header: int) -> bool:
        """Feed one candidate 2-bit sync header; returns current lock."""
        valid = sync_header in SYNC_VALID
        self.headers_seen += 1
        if not valid:
            self.invalid_headers += 1
        if not self.locked:
            if valid:
                self._valid_run += 1
                if self._valid_run >= LOCK_THRESHOLD:
                    self.locked = True
                    self.hi_ber = False
                    self._reset_window()
            else:
                # Slip one bit and start counting again.
                self._valid_run = 0
                self.slips += 1
            return self.locked

        self._window_blocks += 1
        if not valid:
            self._window_invalid += 1
            if self._window_invalid >= HI_BER_THRESHOLD:
                self.locked = False
                self.hi_ber = True
                self.hi_ber_events += 1
                self._valid_run = 0
                self._reset_window()
        if self._window_blocks >= HI_BER_WINDOW_BLOCKS:
            self._reset_window()
        return self.locked

    def _reset_window(self) -> None:
        self._window_blocks = 0
        self._window_invalid = 0

    def push_stream(self, headers: Iterable[int]) -> List[bool]:
        """Feed a header sequence; returns the lock state after each."""
        return [self.push_header(h) for h in headers]


def headers_from_bitstream(bits: List[int], offset: int = 0) -> List[int]:
    """Extract candidate sync headers from a raw bitstream at ``offset``.

    A receiver that slipped ``offset`` bits sees block boundaries shifted;
    with the wrong offset, headers are effectively random data bits and
    lock cannot be achieved — the behaviour tests verify.
    """
    headers = []
    position = offset
    while position + 66 <= len(bits):
        headers.append((bits[position] << 1) | bits[position + 1])
        position += 66
    return headers


def blocks_to_bitstream(block_ints: List[int]) -> List[int]:
    """Serialize 66-bit block integers (sync in MSBs) into a bit list."""
    bits: List[int] = []
    for value in block_ints:
        for shift in range(65, -1, -1):
            bits.append((value >> shift) & 1)
    return bits
