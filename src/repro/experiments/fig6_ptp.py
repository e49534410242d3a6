"""Figures 6d, 6e, 6f: PTP precision under idle / medium / heavy load.

The testbed matches the paper's Section 6.1 PTP setup: all servers hang
off one cut-through switch acting as a transparent clock, the grandmaster
multicasts Sync once per second, and hardware timestamps are used
throughout.  Load is the fluid backlog substitution documented in
DESIGN.md.  The heavy run spares one host's links (the paper spared S11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..ptp.network import PtpConfig, PtpDeployment
from ..network.topology import star
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, PeriodicSampler

#: Host names mirroring the paper's servers: h0 is the timeserver, the
#: rest are clients S4..S11 (we name them h1..h8 and map in labels).
NUM_CLIENTS = 8


@dataclass
class Fig6PtpConfig:
    load: str = "idle"  # 'idle' (6d), 'medium' (6e), 'heavy' (6f)
    duration_fs: int = 600 * units.SEC
    warmup_fs: int = 120 * units.SEC
    sample_interval_fs: int = units.SEC
    seed: int = 2
    exclude_hosts: List[str] = field(default_factory=list)


def run_fig6_ptp(config: Fig6PtpConfig) -> ExperimentResult:
    """Measure true slave-to-grandmaster offsets over the run."""
    sim = Simulator()
    streams = RandomStreams(config.seed)
    topology = star(NUM_CLIENTS + 1)
    deployment = PtpDeployment(sim, topology, streams, master="h0", config=PtpConfig())
    exclude = list(config.exclude_hosts)
    if config.load == "heavy" and not exclude:
        exclude = ["h8"]  # the paper spared S11's links
    deployment.apply_load(config.load, exclude_hosts=exclude)
    deployment.start()

    def probe(now: int) -> dict:
        return {
            name: deployment.true_offset_fs(name, now)
            for name in deployment.slaves
        }

    sampler = PeriodicSampler(
        sim, config.sample_interval_fs, probe, start_fs=config.warmup_fs
    )
    sim.run_until(config.duration_fs)

    result = ExperimentResult(
        name=f"fig6-ptp-{config.load}",
        params={
            "load": config.load,
            "duration_s": config.duration_fs / units.SEC,
            "sync_interval_s": 1.0,
            "seed": config.seed,
            "excluded": ",".join(exclude) or "-",
        },
        series=sampler.all_series(),
    )
    values = [
        abs(v)
        for series in result.series
        if series.label not in exclude
        for v in series.values
    ]
    if values:
        ordered = sorted(values)
        result.summary["worst_offset_us"] = ordered[-1] / units.US
        result.summary["p50_offset_us"] = ordered[len(ordered) // 2] / units.US
        result.summary["p99_offset_us"] = ordered[int(len(ordered) * 0.99)] / units.US
    result.summary["bounded"] = False  # PTP offers no bound — the point of Table 1
    return result
