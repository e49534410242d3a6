"""Load and drift models that only the backend-equivalence tests drive.

* :class:`PartialLoadTraffic` — random frame arrivals at a target
  utilization: the slot arbiter sees irregular gaps, unlike the saturated
  load every experiment uses.
* :class:`SinusoidalSkew` — a time-varying frequency offset whose period
  changes at every oscillator segment boundary.

Nothing under ``src/repro`` runs either; they plug into its interfaces
(:class:`repro.ethernet.traffic.TrafficModel`,
:class:`repro.clocks.oscillator.SkewModel`).
"""

import math
import random

from repro.clocks.oscillator import SkewModel
from repro.ethernet.frames import FrameSpec
from repro.ethernet.traffic import TrafficModel


class TrafficError(RuntimeError):
    """Raised on invalid traffic-model usage (e.g. non-monotonic queries)."""


class PartialLoadTraffic(TrafficModel):
    """Random frame arrivals at a target utilization.

    Busy runs of one frame alternate with geometric idle runs whose mean
    produces the requested load, counted from ``start_tick``.  State is a
    single current interval; the model therefore requires non-decreasing
    queries.
    """

    def __init__(self, frame: FrameSpec, load: float, rng: random.Random) -> None:
        if not 0.0 <= load < 1.0:
            raise ValueError("load must be in [0, 1)")
        self.frame = frame
        self.load = load
        self.rng = rng
        # Mean idle gap G solving  B / (B + G) = load, with G >= 1.
        blocks = frame.blocks
        if load == 0.0:
            self._mean_gap = None
        else:
            self._mean_gap = max(1.0, blocks * (1.0 - load) / load)
        self._idle_start = 0
        self._idle_end = self._draw_gap()  # exclusive
        self._last_query = 0

    def _draw_gap(self) -> int:
        if self._mean_gap is None:
            return 1 << 62
        # Geometric with mean _mean_gap, support >= 1.
        u = self.rng.random()
        p = 1.0 / self._mean_gap
        gap = 1 + int(math.log(max(u, 1e-300)) / math.log1p(-min(p, 0.999999)))
        return max(1, gap)

    def next_idle_tick(self, tick: int) -> int:
        start = self.start_tick
        if tick < start:
            return tick
        tick -= start
        if tick < self._last_query:
            raise TrafficError(
                f"traffic queries must be monotonic (got {tick} after {self._last_query})"
            )
        self._last_query = tick
        while True:
            if tick < self._idle_end:
                return start + max(tick, self._idle_start)
            # Busy run: one frame, then a fresh idle window.
            self._idle_start = self._idle_end + self.frame.blocks
            self._idle_end = self._idle_start + self._draw_gap()


class SinusoidalSkew(SkewModel):
    """Slow sinusoidal wander, e.g. a datacenter HVAC temperature cycle."""

    def __init__(
        self,
        mean_ppm: float,
        amplitude_ppm: float,
        period_fs: int,
        phase: float = 0.0,
    ) -> None:
        if period_fs <= 0:
            raise ValueError("period_fs must be positive")
        self.mean_ppm = mean_ppm
        self.amplitude_ppm = amplitude_ppm
        self.period_fs = period_fs
        self.phase = phase

    def ppm_at(self, t_fs: int) -> float:
        angle = 2.0 * math.pi * (t_fs / self.period_fs) + self.phase
        return self.mean_ppm + self.amplitude_ppm * math.sin(angle)
