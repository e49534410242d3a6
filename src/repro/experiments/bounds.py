"""Section 3.3's multi-hop bound: max offset <= 4TD.

Two experiments:

* **hop scaling** — chains of D = 1..6 hops; the worst end-to-end offset
  must stay within 4D ticks (25.6 ns per hop, 153.6 ns at D=6, the paper's
  headline datacenter-wide number);
* **fat-tree** — a k=4 fat-tree (diameter 6), the topology the paper cites
  for the six-hop datacenter case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..dtp.analysis import network_bound_ticks
from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.topology import chain, fat_tree
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, TimeSeries, steps


#: Both experiments run the paper's 200-tick BEACON interval, well inside
#: Section 3.3's 5000-tick budget, so each hop owes at most 4 ticks; and
#: read offsets every 50 us, about 40 BEACON intervals apart.
BEACON_INTERVAL_TICKS = 200
SAMPLE_INTERVAL_FS = 50 * units.US


@dataclass
class BoundsConfig:
    max_hops: int = 6
    duration_fs: int = 6 * units.MS
    warmup_fs: int = 1 * units.MS
    seed: int = 4


def run_hop_scaling(config: BoundsConfig = None) -> ExperimentResult:
    """Worst observed offset between chain endpoints, per hop count."""
    config = config or BoundsConfig()
    result = ExperimentResult(
        name="bounds-hop-scaling",
        params={
            "beacon_interval_ticks": BEACON_INTERVAL_TICKS,
            "duration_ms": config.duration_fs / units.MS,
            "seed": config.seed,
        },
    )
    series = TimeSeries(label="worst_offset_ticks_vs_hops")
    per_hop: Dict[int, int] = {}
    for hops in range(1, config.max_hops + 1):
        sim = Simulator()
        streams = RandomStreams(config.seed + hops)
        net = DtpNetwork(
            sim,
            chain(hops + 1),
            streams,
            config=DtpPortConfig(beacon_interval_ticks=BEACON_INTERVAL_TICKS),
        )
        net.start()
        sim.run_until(config.warmup_fs)
        grid = steps(sim, SAMPLE_INTERVAL_FS, config.duration_fs)
        worst = max(abs(net.pair_offset("n0", f"n{hops}", t)) for t in grid)
        per_hop[hops] = worst
        series.append(hops, worst)
    result.series.append(series)
    result.summary["per_hop_worst_ticks"] = per_hop
    result.summary["per_hop_bound_ticks"] = {
        hops: network_bound_ticks(hops) for hops in per_hop
    }
    result.summary["all_within_bound"] = all(
        worst <= network_bound_ticks(hops) for hops, worst in per_hop.items()
    )
    return result


def run_fat_tree(
    k: int = 4,
    duration_fs: int = 4 * units.MS,
    warmup_fs: int = 1 * units.MS,
    seed: int = 5,
) -> ExperimentResult:
    """Datacenter-wide precision on a k-ary fat-tree."""
    sim = Simulator()
    streams = RandomStreams(seed)
    topology = fat_tree(k)
    net = DtpNetwork(
        sim,
        topology,
        streams,
        config=DtpPortConfig(beacon_interval_ticks=BEACON_INTERVAL_TICKS),
    )
    net.start()
    sim.run_until(warmup_fs)
    hosts = topology.hosts()
    diameter = topology.diameter_hops(hosts)
    series = TimeSeries(label="max_abs_offset_ticks")
    for t in steps(sim, SAMPLE_INTERVAL_FS, duration_fs):
        series.append(t, net.max_abs_offset(hosts, t))
    worst = series.max()
    bound = network_bound_ticks(diameter)
    return ExperimentResult(
        name=f"bounds-fat-tree-{k}",
        params={
            "k": k,
            "hosts": len(hosts),
            "diameter_hops": diameter,
            "duration_ms": duration_fs / units.MS,
            "seed": seed,
        },
        series=[series],
        summary={
            "worst_offset_ticks": worst,
            "worst_offset_ns": worst * 6.4,
            "bound_ticks": bound,
            "bound_ns": bound * 6.4,
            "within_bound": worst <= bound,
        },
    )
