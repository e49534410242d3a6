"""Figures 6a, 6b, 6c: DTP precision on the paper's twelve-node testbed.

6a: BEACON interval 200 ticks, links saturated with MTU frames;
6b: BEACON interval 1200 ticks, links saturated with jumbo frames;
6c: the distribution of measured offsets at S3 over a long run.

The measurement channel is the paper's (Section 6.2): LOG records ride the
PHY from each leaf to its switch (and between switches), and the receiver
computes ``offset_hw = t2 - t1 - OWD``.  The paper logged twice a second
over two days; we log every ``LOG_INTERVAL_FS`` over a shorter simulated
window — the claim being checked ("never more than 4 ticks") is a bound
over every sample, so the sampling rate, not the wall time, sets the
statistical weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..ethernet.frames import beacon_interval_ticks_for
from ..network.topology import paper_testbed
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, TimeSeries, histogram
from .workloads import frame_for, saturated_traffic

#: The (sender, receiver) pairs whose offsets Figures 6a/6b plot.
FIG6AB_PAIRS: List[Tuple[str, str]] = [
    ("S4", "S1"),
    ("S5", "S1"),
    ("S0", "S1"),
    ("S7", "S2"),
    ("S8", "S2"),
    ("S0", "S2"),
    ("S10", "S3"),
    ("S11", "S3"),
    ("S0", "S3"),
]

#: Figure 6c plots the offset distribution observed at S3.
FIG6C_PAIRS: List[Tuple[str, str]] = [
    ("S9", "S3"),
    ("S10", "S3"),
    ("S11", "S3"),
    ("S0", "S3"),
]


@dataclass
class Fig6DtpConfig:
    """Run parameters (defaults sized for a benchmark run)."""

    frame_name: str = "mtu"  # 'mtu' -> Figure 6a, 'jumbo' -> Figure 6b
    duration_fs: int = 20 * units.MS
    warmup_fs: int = 2 * units.MS
    seed: int = 1


#: Each monitored pair sends a LOG every 50 us (the module docstring says
#: why a short run sampled this often stands in for the paper's days).
LOG_INTERVAL_FS = 50 * units.US


class _LogDriver:
    """Sends a LOG record on each monitored pair at a fixed cadence."""

    def __init__(
        self, net: DtpNetwork, pairs: List[Tuple[str, str]], interval_fs: int,
        start_fs: int,
    ) -> None:
        self.net = net
        self.pairs = pairs
        self.interval_fs = interval_fs
        net.sim.schedule_at(start_fs, self._tick)

    def _tick(self) -> None:
        for sender, receiver in self.pairs:
            self.net.send_log(sender, receiver)
        self.net.sim.schedule(self.interval_fs, self._tick)


def run_fig6_dtp(
    config: Fig6DtpConfig,
    pairs: List[Tuple[str, str]] = None,
    telemetry=None,
    backend: Optional[str] = None,
    observe=None,
) -> ExperimentResult:
    """Run one heavily-loaded DTP precision experiment.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is optional; the
    default ``None`` keeps the run on the exact untraced code paths, so
    the published experiment digests are unchanged.  ``backend`` is
    :class:`DtpNetwork`'s (default: its ``DEFAULT_BACKEND``); the result
    (and its digest) is byte-identical on both.  ``observe`` (a
    :class:`repro.observe.ObserveProbe`) rides the true-offset watcher's
    cadence, feeding per-link counter offsets to the probe (and its
    snapshot tap, when attached); it only reads network state, so the
    experiment output digest stays unchanged — the property the
    ``"observe"`` bench section guards.
    """
    pairs = pairs if pairs is not None else FIG6AB_PAIRS
    frame = frame_for(config.frame_name)
    beacon_interval = beacon_interval_ticks_for(frame)

    if backend == "sharded":
        # fig6a installs traffic generators, log channels, and a
        # true-offset watcher directly on the live network — custom
        # events the conservative shard protocol cannot replay (the same
        # reason the sharded driver, alone of the three, rejects
        # run_scenario observers).
        raise ValueError(
            "backend='sharded' supports spec-driven faultlab scenarios "
            "only; fig6a's traffic/log drivers need one live process "
            "(see docs/SHARDING.md)"
        )
    sim = Simulator()
    streams = RandomStreams(config.seed)
    topology = paper_testbed()
    port_config = DtpPortConfig(beacon_interval_ticks=beacon_interval)
    net = DtpNetwork(
        sim, topology, streams, config=port_config, telemetry=telemetry,
        backend=backend,
    )
    net.start()
    net.install_traffic(saturated_traffic(config.frame_name), start_tick=20_000)
    for sender, receiver in pairs:
        net.attach_logger(sender, receiver)
    _LogDriver(net, pairs, LOG_INTERVAL_FS, start_fs=config.warmup_fs)

    # Track the network-wide true-offset maximum alongside the log channel.
    true_max = 0

    def watch_true() -> None:
        nonlocal true_max
        true_max = max(true_max, net.max_abs_offset())
        if sim.now < config.duration_fs:
            sim.schedule(100 * units.US, watch_true)

    sim.schedule_at(config.warmup_fs, watch_true)

    if observe is not None:
        # The probe self-schedules from early in the run (not just the
        # post-warmup watcher grid), sampling every adjacent link — the
        # live stream should show convergence, not start at steady state.
        direct_bound = 4

        def watch_observe() -> None:
            observe.observe_links(
                sim.now,
                net.max_abs_offset(),
                [
                    (edge.a, edge.b, abs(net.pair_offset(edge.a, edge.b)),
                     direct_bound)
                    for edge in topology.edges
                ],
            )
            if sim.now < config.duration_fs:
                sim.schedule(100 * units.US, watch_observe)

        sim.schedule_at(min(config.warmup_fs, 100 * units.US), watch_observe)
    sim.run_until(config.duration_fs)

    result = ExperimentResult(
        name=f"fig6-dtp-{config.frame_name}",
        params={
            "beacon_interval_ticks": beacon_interval,
            "frame_bytes": frame.frame_bytes,
            "duration_ms": config.duration_fs / units.MS,
            "seed": config.seed,
        },
    )
    worst_logged = 0
    for sender, receiver in pairs:
        label = f"{receiver.lower()}-{sender.lower()}"
        series = TimeSeries(label=label)
        for sample in net.logged_for(sender, receiver):
            series.append(sample.time_fs, sample.offset_ticks)
        result.series.append(series)
        if series.values:
            worst_logged = max(worst_logged, int(series.max_abs()))
    result.summary["worst_logged_offset_ticks"] = worst_logged
    result.summary["worst_logged_offset_ns"] = worst_logged * 6.4
    result.summary["true_max_offset_ticks"] = true_max
    result.summary["bound_ticks_direct"] = 4
    result.summary["bound_ticks_network"] = 4 * topology.diameter_hops()
    result.summary["within_direct_bound"] = worst_logged <= 4
    return result


def run_fig6c(
    config: Fig6DtpConfig = None, telemetry=None
) -> Tuple[ExperimentResult, Dict[str, Dict[float, float]]]:
    """Figure 6c: offset distributions observed at S3 (jumbo frames).

    Returns the experiment result plus a per-pair PDF over integer tick
    bins, matching the paper's histogram.
    """
    config = config or Fig6DtpConfig(frame_name="jumbo", duration_fs=40 * units.MS)
    result = run_fig6_dtp(config, pairs=FIG6C_PAIRS, telemetry=telemetry)
    result.name = "fig6c-dtp-distribution"
    pdfs = {
        series.label: histogram(series.values, bin_width=1.0)
        for series in result.series
    }
    return result, pdfs
