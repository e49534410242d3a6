"""Figures 6d, 6e, 6f: PTP precision under idle / medium / heavy load.

The testbed matches the paper's Section 6.1 PTP setup: all servers hang
off one cut-through switch acting as a transparent clock, the grandmaster
multicasts Sync once per second, and hardware timestamps are used
throughout.  Load is the fluid backlog substitution documented in
DESIGN.md.  The heavy run spares one host's links (the paper spared S11).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ptp.network import PtpConfig, PtpDeployment
from ..network.topology import star
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, TimeSeries, steps

#: Host names mirroring the paper's servers: h0 is the timeserver, the
#: rest are clients S4..S11 (we name them h1..h8 and map in labels).
NUM_CLIENTS = 8
#: Offsets are read once per Sync interval (one second), from two minutes
#: in, once the servos have settled.
WARMUP_FS = 120 * units.SEC
SAMPLE_INTERVAL_FS = units.SEC


@dataclass
class Fig6PtpConfig:
    load: str = "idle"  # 'idle' (6d), 'medium' (6e), 'heavy' (6f)
    duration_fs: int = 600 * units.SEC
    seed: int = 2


def run_fig6_ptp(config: Fig6PtpConfig) -> ExperimentResult:
    """Measure true slave-to-grandmaster offsets over the run."""
    sim = Simulator()
    streams = RandomStreams(config.seed)
    topology = star(NUM_CLIENTS + 1)
    deployment = PtpDeployment(sim, topology, streams, master="h0", config=PtpConfig())
    exclude = ["h8"] if config.load == "heavy" else []  # the paper spared S11's links
    deployment.apply_load(config.load, exclude_hosts=exclude)
    deployment.start()

    series = {name: TimeSeries(label=name) for name in sorted(deployment.slaves)}
    sim.run_until(WARMUP_FS)
    grid = steps(sim, SAMPLE_INTERVAL_FS, config.duration_fs)
    for t in itertools.chain([WARMUP_FS], grid):
        for name, offsets in series.items():
            offsets.append(t, deployment.true_offset_fs(name, t))

    result = ExperimentResult(
        name=f"fig6-ptp-{config.load}",
        params={
            "load": config.load,
            "duration_s": config.duration_fs / units.SEC,
            "sync_interval_s": 1.0,
            "seed": config.seed,
            "excluded": ",".join(exclude) or "-",
        },
        series=list(series.values()),
    )
    ordered = sorted(
        abs(v) for s in result.series if s.label not in exclude for v in s.values
    )
    result.summary["worst_offset_us"] = ordered[-1] / units.US
    result.summary["p50_offset_us"] = ordered[len(ordered) // 2] / units.US
    result.summary["p99_offset_us"] = ordered[int(len(ordered) * 0.99)] / units.US
    result.summary["bounded"] = False  # PTP offers no bound — the point of Table 1
    return result
