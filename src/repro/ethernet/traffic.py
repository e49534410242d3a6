"""Traffic cadence models: when can a DTP message ride the wire?

DTP messages occupy idle (/E/) blocks, so the only thing load changes is
*which tick indices are available*.  A traffic model answers
``next_idle_tick(tick)``: the first tick index at or after ``tick`` whose
block is idle.  Queries must be non-decreasing (the simulation only moves
forward), which lets the stochastic models keep O(1) state.  A port with
no model is on an idle link: every block is idle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .frames import FrameSpec


class TrafficModel(ABC):
    """Occupancy of TX tick slots on one link direction.

    Physically a link carries no frames before it comes up, so DTP's INIT
    exchange always runs on an idle link: every tick before
    ``start_tick`` is idle, and from it on the model runs as it would
    from tick 0.
    """

    start_tick = 0

    def start_at(self, start_tick: int) -> None:
        """Begin the load at ``start_tick``; the link is idle before it."""
        if start_tick < 0:
            raise ValueError("start_tick must be non-negative")
        self.start_tick = start_tick

    @abstractmethod
    def next_idle_tick(self, tick: int) -> int:
        """First tick index >= ``tick`` whose block is an idle slot."""


class SaturatedTraffic(TrafficModel):
    """Back-to-back frames with the single mandatory idle block between.

    With frames of ``B`` blocks the pattern has period ``B + 1`` and the
    idle slot sits ``phase`` ticks into each period, counted from
    ``start_tick``.  This is the paper's "heavily loaded" condition
    (Figures 6a/6b).
    """

    def __init__(self, frame: FrameSpec, phase: int = 0) -> None:
        self.frame = frame
        self.period = frame.slot_blocks
        self.phase = phase % self.period

    def next_idle_tick(self, tick: int) -> int:
        start = self.start_tick
        if tick < start:
            return tick
        remainder = (tick - start - self.phase) % self.period
        if remainder == 0:
            return tick
        return tick + (self.period - remainder)

    def __repr__(self) -> str:
        return f"SaturatedTraffic(frame={self.frame.frame_bytes}B, period={self.period})"
