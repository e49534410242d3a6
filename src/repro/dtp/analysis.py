"""Analytical bounds from paper Section 3.3.

These closed forms are what the simulation is checked against:

* OWD measurement contributes at most 2 ticks of offset (with alpha = 3);
* a beacon interval under ~5000 ticks contributes at most 2 ticks;
* hence 4 ticks (25.6 ns) per hop and ``4 T D`` across ``D`` hops;
* a software daemon adds up to ``8 T``, giving ``4TD + 8T`` end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..clocks.oscillator import IEEE_8023_PPM_LIMIT, ConstantSkew, SkewModel
from ..phy.specs import PHY_10G, PhySpec
from ..sim import units

#: Per-link offset bound in ticks: 2 (OWD error) + 2 (beacon interval).
DIRECT_BOUND_TICKS = 4

#: Software-daemon access error bound, in ticks (paper abstract: 8T).
DAEMON_BOUND_TICKS = 8


def direct_bound_ns(spec: PhySpec = PHY_10G) -> float:
    """25.6 ns for 10 GbE: the two-peer precision bound."""
    return DIRECT_BOUND_TICKS * spec.period_ns


def network_bound_ticks(diameter_hops: int) -> int:
    """4D: the datacenter-wide bound in ticks for diameter D."""
    if diameter_hops < 0:
        raise ValueError("diameter must be non-negative")
    return DIRECT_BOUND_TICKS * diameter_hops


def network_bound_ns(diameter_hops: int, spec: PhySpec = PHY_10G) -> float:
    """4TD in nanoseconds; 153.6 ns for the six-hop fat-tree at 10 GbE."""
    return network_bound_ticks(diameter_hops) * spec.period_ns


def end_to_end_bound_ns(diameter_hops: int, spec: PhySpec = PHY_10G) -> float:
    """4TD + 8T: network bound plus software daemon access error."""
    return (network_bound_ticks(diameter_hops) + DAEMON_BOUND_TICKS) * spec.period_ns


def max_beacon_interval_ticks(
    ppm_limit: float = IEEE_8023_PPM_LIMIT, spec: PhySpec = PHY_10G
) -> int:
    """Largest beacon interval keeping drift under one tick between beacons.

    Section 3.3: ``dt * (f_p - f_q) < 1`` with the worst-case frequency gap
    ``2 * ppm_limit * f`` requires ``dt < 1 / (2 * ppm_limit * f)`` = 32 us
    at 10 GbE, i.e. ~5000 ticks.
    """
    worst_gap = 2.0 * ppm_limit * 1e-6  # fractional frequency difference
    dt_seconds = spec.period_fs / units.SEC / worst_gap
    return int(dt_seconds * units.SEC / spec.period_fs)


def safe_beacon_interval_ticks(
    max_cable_m: float = 1000.0,
    ppm_limit: float = IEEE_8023_PPM_LIMIT,
    spec: PhySpec = PHY_10G,
) -> int:
    """Beacon interval with cable-latency slack (paper: ~4000 ticks).

    The paper subtracts the worst-case cable latency (5 us = ~800 ticks for
    a 1 km run) from the 5000-tick budget and rounds down to 4000.
    """
    budget = max_beacon_interval_ticks(ppm_limit, spec)
    cable_ticks = math.ceil(max_cable_m * units.FIBER_DELAY_FS_PER_M / spec.period_fs)
    return budget - cable_ticks


def drift_ticks_over(
    interval_ticks: int, ppm_gap: float, spec: PhySpec = PHY_10G
) -> float:
    """How many ticks two clocks with a ``ppm_gap`` drift apart over an interval."""
    return interval_ticks * ppm_gap * 1e-6


@dataclass(frozen=True)
class OwdErrorAnalysis:
    """Section 3.3's OWD measurement error budget, parameterized by alpha.

    The true one-way delay is ``d`` ticks.  Measured RTT at the faster peer
    lies in ``[2d, 2d + 4]`` (two sampling quantizations and two CDC cycles),
    so ``(rtt - alpha) // 2`` lands in the interval below.
    """

    alpha: int

    @property
    def measured_min_minus_d(self) -> int:
        return (0 - self.alpha) // 2

    @property
    def measured_max_minus_d(self) -> int:
        return (4 - self.alpha) // 2

    def never_overestimates(self) -> bool:
        """alpha >= 3 guarantees the measured OWD never exceeds d.

        This is the property that keeps the global counter from running
        faster than the fastest oscillator (Section 3.3).
        """
        return self.measured_max_minus_d <= 0


def runaway_skews(
    node_names: List[str],
    runaway_node: str,
    runaway_ppm: float = 500.0,
    normal_ppm: float = 0.0,
) -> Dict[str, SkewModel]:
    """Skew map with one oscillator violating the IEEE +/-100 ppm envelope.

    Section 5.4: such a device drags the whole network's counter rate up
    (everyone follows the fastest clock) and triggers many jumps at its
    peers — the condition the jump-rate fault detector looks for.
    """
    skews: Dict[str, SkewModel] = {
        name: ConstantSkew(normal_ppm) for name in node_names
    }
    skews[runaway_node] = ConstantSkew(runaway_ppm)
    return skews


def expected_partition_divergence_ticks(
    partition_fs: int, ppm_gap: float, period_fs: int = units.TICK_10G_FS
) -> float:
    """Counter divergence two subnets accumulate while partitioned."""
    return partition_fs / period_fs * ppm_gap * 1e-6
