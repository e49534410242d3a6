"""Clock-domain-crossing (CDC) synchronization FIFO model.

The RX path of a PHY runs on the clock recovered from the incoming signal;
the TX path and the DTP control logic run on the local oscillator.  Passing
a received message between the two domains goes through a synchronization
FIFO whose flip-flop chain adds **zero or one extra cycle at random**
(paper Sections 2.5 and 3.3) — this is the *only* nondeterministic delay in
the entire DTP message path and the reason the per-link offset bound is
4 ticks rather than 2.
"""

from __future__ import annotations

import random


class SyncFifo:
    """Models sampling an asynchronous arrival into a local clock domain
    (the caller finds the first edge; the FIFO adds the settling)."""

    def __init__(
        self, rng: random.Random, max_extra_cycles: int = 1, enabled: bool = True
    ) -> None:
        self.rng = rng
        self.max_extra_cycles = max_extra_cycles
        # ``rng.randint(0, max_extra_cycles)`` exactly (both fixed here):
        # CPython's accept-reject loop over ``bound``, the same generator
        # state per draw, without randint's argument handling.
        self._bound = max_extra_cycles + 1
        self._bits = self._bound.bit_length()
        self._getrandbits = rng.getrandbits
        #: Ablation hook: with the FIFO "disabled" the arrival is sampled at
        #: the next local edge with no metastability guard cycle.
        self.enabled = enabled
        self.crossings = 0

    def settle(self, n: int) -> int:
        """The edge an arrival sampled on edge ``n`` is visible on: ``n``
        plus 0..max_extra_cycles random settling cycles (none when
        disabled)."""
        self.crossings += 1
        if not self.enabled:
            return n
        r = self._getrandbits(self._bits)
        while r >= self._bound:
            r = self._getrandbits(self._bits)
        return n + r

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyncFifo(enabled={self.enabled}, crossings={self.crossings})"
