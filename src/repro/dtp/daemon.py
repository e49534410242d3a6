"""The DTP software daemon (paper Section 5.1, evaluated in Figure 7).

Applications cannot read the NIC's DTP counter directly on every call; the
daemon reads it over PCIe occasionally, pairs each read with a TSC stamp,
estimates the DTP-ticks-per-TSC-cycle ratio, and interpolates in between —
the same trick ``gettimeofday`` uses.  The PCIe read is the error source:
its latency jitters and occasionally spikes, which is exactly the structure
of Figure 7a; a small moving average recovers Figure 7b.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from ..clocks.tsc import TscCounter
from ..sim import units
from ..sim.engine import Simulator
from .device import DtpDevice


@dataclass
class PcieModel:
    """Latency of a memory-mapped NIC register read, per direction.

    The read request crosses the PCIe fabric to the NIC (which latches the
    counter on arrival), and the completion crosses back.  Each direction
    has base latency plus uniform jitter, with occasional long spikes
    (DMA/bus contention).  Software can only see the round trip, so it
    anchors samples at the TSC midpoint of issue/completion — the
    *asymmetry* between the two halves is the irreducible error, and the
    spikes produce the excursions visible in the paper's Figure 7a.
    """

    base_fs: int = 125 * units.NS
    jitter_fs: int = 100 * units.NS
    spike_probability: float = 0.04
    spike_mean_fs: int = 250 * units.NS

    def sample_one_way(self, rng: random.Random) -> int:
        latency = self.base_fs + rng.randint(0, self.jitter_fs)
        if rng.random() < self.spike_probability:
            latency += round(rng.expovariate(1.0 / self.spike_mean_fs))
        return latency


@dataclass
class DaemonSample:
    """One PCIe read: the paired (TSC stamp, DTP counter) observation.

    ``time_fs`` is the sample's simulated-clock timestamp — the midpoint
    of issue and completion, i.e. the instant the TSC anchor estimates.
    It exists so samples carry an explicit common timebase instead of
    relying on their position in the history deque.
    """

    tsc: int
    counter: int
    issued_fs: int
    completed_fs: int
    time_fs: int = 0


class DtpDaemon:
    """Periodically samples the NIC counter and interpolates with the TSC."""

    def __init__(
        self,
        sim: Simulator,
        device: DtpDevice,
        tsc: TscCounter,
        rng: random.Random,
        pcie: Optional[PcieModel] = None,
        sample_interval_fs: int = units.MS,
        history: int = 64,
        smoothing_window: int = 1,
    ) -> None:
        self.sim = sim
        self.device = device
        self.tsc = tsc
        self.rng = rng
        self.pcie = pcie or PcieModel()
        self.sample_interval_fs = sample_interval_fs
        self.samples: Deque[DaemonSample] = deque(maxlen=history)
        #: Daemon-side smoothing of counter observations (>=1; 1 = off).
        self.smoothing_window = max(1, smoothing_window)
        self._running = False
        #: Estimated DTP ticks per TSC cycle; seeded from nominal rates.
        self._ratio = (
            self.tsc.oscillator.nominal_period_fs
            / self.device.oscillator.nominal_period_fs
        ) * self.device.counter_increment
        self.reads = 0

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic PCIe sampling loop."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(0, self._read_once)

    def stop(self) -> None:
        self._running = False

    def _read_once(self) -> None:
        if not self._running:
            return
        issued_fs = self.sim.now
        request_fs = self.pcie.sample_one_way(self.rng)
        response_fs = self.pcie.sample_one_way(self.rng)
        # The NIC latches the counter when the read request reaches it;
        # software stamps the TSC at issue and completion and anchors the
        # sample at their midpoint (it cannot see the true latch instant).
        sample_point_fs = issued_fs + request_fs
        completed_fs = issued_fs + request_fs + response_fs
        counter = self.device.global_counter(sample_point_fs)
        self.sim.schedule_at(completed_fs, self._complete_read, counter, issued_fs)

    def _complete_read(self, counter: int, issued_fs: int) -> None:
        completed_fs = self.sim.now
        tsc_issue = self.tsc.rdtsc(issued_fs)
        tsc_complete = self.tsc.rdtsc(completed_fs)
        sample = DaemonSample(
            tsc=(tsc_issue + tsc_complete) // 2,
            counter=counter,
            issued_fs=issued_fs,
            completed_fs=completed_fs,
            time_fs=(issued_fs + completed_fs) // 2,
        )
        self.samples.append(sample)
        self.reads += 1
        self._update_ratio()
        if self._running:
            self.sim.schedule(self.sample_interval_fs, self._read_once)

    def _update_ratio(self) -> None:
        """Refresh the DTP-per-TSC frequency ratio from the sample history."""
        if len(self.samples) < 2:
            return
        first = self.samples[0]
        last = self.samples[-1]
        ratio = _endpoint_rate(first.tsc, first.counter, last.tsc, last.counter)
        if ratio is not None:
            self._ratio = ratio

    # ------------------------------------------------------------------
    # The get_DTP_counter API (paper Section 5.1)
    # ------------------------------------------------------------------
    def get_dtp_counter(self, t_fs: int) -> int:
        """Estimate the NIC's DTP counter at simulation time ``t_fs``.

        Interpolates from the most recent PCIe sample(s) using the TSC.
        With ``smoothing_window > 1`` the anchor is the average of the last
        few samples, which suppresses PCIe spikes (Figure 7b).
        """
        if not self.samples:
            raise RuntimeError("daemon has no samples yet; call start() and run")
        anchor_tsc, anchor_counter = _windowed_anchor(
            [s.tsc for s in self.samples],
            [s.counter for s in self.samples],
            self.smoothing_window,
        )
        tsc_now = self.tsc.rdtsc(t_fs)
        return round(_extrapolate(anchor_tsc, anchor_counter, self._ratio, tsc_now))

    def estimated_frequency_ratio(self) -> float:
        return self._ratio


# The interpolation math, kept as three plain functions so
# ``tests/test_dtp_daemon.py`` can pin it to the original inline formulas
# (same float operations in the same order, compared with ``==``).
def _endpoint_rate(
    first_x: float, first_y: float, last_x: float, last_y: float
) -> Optional[float]:
    """Slope ``dy/dx`` between the history endpoints.

    ``None`` when ``last_x`` does not advance past ``first_x``: the caller
    keeps its previous estimate.
    """
    dx = last_x - first_x
    if dx <= 0:
        return None
    return (last_y - first_y) / dx


def _windowed_anchor(
    xs: Sequence[float], ys: Sequence[float], window: int
) -> Tuple[float, float]:
    """Mean ``(x, y)`` of the trailing ``window`` samples.

    ``window`` is clamped to the history length; with ``window == 1`` the
    anchor is the raw latest sample (Figure 7a), larger windows suppress
    read spikes (Figure 7b).
    """
    if not xs or len(xs) != len(ys):
        raise ValueError("need equal, non-empty sample sequences")
    window = max(1, min(window, len(xs)))
    recent_x = xs[len(xs) - window:]
    recent_y = ys[len(ys) - window:]
    return sum(recent_x) / window, sum(recent_y) / window


def _extrapolate(anchor_x: float, anchor_y: float, rate: float, x: float) -> float:
    """``anchor_y + (x - anchor_x) * rate``: the interpolation read."""
    return anchor_y + (x - anchor_x) * rate


def moving_average(values: List[int], window: int) -> List[float]:
    """Simple trailing moving average (the paper's Figure 7b smoothing)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    out: List[float] = []
    acc = 0.0
    queue: Deque[int] = deque()
    for value in values:
        queue.append(value)
        acc += value
        if len(queue) > window:
            acc -= queue.popleft()
        out.append(acc / len(queue))
    return out
