"""Output queues for the packet-switched network model.

PTP's precision collapse under load (paper Figures 6e/6f) is a queueing
phenomenon: Sync and Delay_Req messages wait behind bulk traffic in switch
and NIC egress queues, and the waits are asymmetric between directions.
This module provides the byte-bounded FIFO those experiments rely on,
with the occupancy statistics the benchmarks report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class ByteFifo:
    """A FIFO bounded by total queued bytes (tail-drop)."""

    def __init__(self, capacity_bytes: int = 512 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Tuple[object, int]] = deque()
        self._bytes = 0
        self.enqueued = 0
        self.dropped = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, item: object, size_bytes: int) -> bool:
        """Enqueue; returns False (tail drop) when the queue is full."""
        if self._bytes + size_bytes > self.capacity_bytes:
            self.dropped += 1
            return False
        self._queue.append((item, size_bytes))
        self._bytes += size_bytes
        self.enqueued += 1
        self.peak_bytes = max(self.peak_bytes, self._bytes)
        return True

    def pop(self) -> Optional[Tuple[object, int]]:
        """Dequeue the head, or None when empty."""
        if not self._queue:
            return None
        item, size = self._queue.popleft()
        self._bytes -= size
        return item, size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ByteFifo(len={len(self._queue)}, bytes={self._bytes}/"
            f"{self.capacity_bytes}, dropped={self.dropped})"
        )
