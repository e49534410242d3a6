"""Experiments for the extension systems (paper Sections 2.4.2, 5.4, 8).

* **boundary-clock cascade** — error growth with PTP hierarchy depth;
* **SyncE syntonization** — DTP over a frequency-locked network;
* **spanning-tree DTP** — the Section 5.4 master-rooted mode vs plain DTP
  when an oscillator violates the IEEE envelope.
"""

from __future__ import annotations

from typing import Dict, List

from ..clocks.clock import AdjustableFrequencyClock
from ..clocks.oscillator import ConstantSkew, Oscillator, RandomWalkSkew
from ..dtp.network import DtpNetwork
from ..dtp.spanning_tree import configure_spanning_tree
from ..network.packet import PacketNetwork
from ..network.topology import Topology, chain
from ..phy.specs import PHY_10G
from ..ptp.boundary import BoundaryClock
from ..ptp.master import PtpMaster
from ..ptp.slave import PtpSlave
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, peak_after, steps, worst_offset


def run_boundary_cascade(
    depths: List[int] = (1, 2, 3, 4),
    duration_fs: int = 300 * units.SEC,
    seed: int = 30,
) -> ExperimentResult:
    """Worst offset to the grandmaster vs boundary-clock depth.

    Paper Section 2.4.2: "precision errors from Boundary clocks can be
    cascaded ... and can significantly impact the precision overall".
    """
    result = ExperimentResult(name="extension-boundary-cascade", params={"seed": seed})
    worst_by_depth: Dict[int, float] = {}
    for depth in depths:
        sim = Simulator()
        streams = RandomStreams(seed + depth)
        # gm - bc1 - bc2 - ... - leaf, all on one switch for simplicity.
        names = ["gm"] + [f"bc{i}" for i in range(1, depth)] + ["leaf"]
        topology = _star_with(names)
        network = PacketNetwork(sim, topology)

        def make_clock(name: str) -> AdjustableFrequencyClock:
            rng = streams.stream(f"skew/{name}")
            skew = RandomWalkSkew(
                mean_ppm=rng.uniform(-30, 30),
                step_ppm=0.03,
                step_interval_fs=100 * units.MS,
                seed=rng.getrandbits(32),
            )
            oscillator = Oscillator(
                PHY_10G.period_fs, skew, update_interval_fs=100 * units.MS
            )
            return AdjustableFrequencyClock(oscillator, name=name)

        clocks = {name: make_clock(name) for name in names}
        gm = PtpMaster(
            sim, network, "gm", clocks["gm"], slaves=[names[1]],
            sync_interval_fs=units.SEC,
        )
        boundary_clocks = []
        for level in range(1, len(names) - 1):
            boundary_clocks.append(
                BoundaryClock(
                    sim, network, names[level], names[level - 1],
                    [names[level + 1]], clocks[names[level]],
                    streams.stream(f"bc/{level}"), sync_interval_fs=units.SEC,
                )
            )
        leaf = PtpSlave(
            sim, network, "leaf", names[-2], clocks["leaf"],
            streams.stream("leaf"), sync_interval_fs=units.SEC,
        )
        gm.start()
        for bc in boundary_clocks:
            bc.start()

        warmup = duration_fs // 2
        offsets = (
            abs(clocks["leaf"].time_at(t) - clocks["gm"].time_at(t))
            for t in steps(sim, units.SEC, duration_fs) if t > warmup
        )
        worst_by_depth[depth] = peak_after(offsets, warmup, duration_fs) / units.NS
    result.summary["worst_leaf_offset_ns_by_depth"] = {
        d: round(v, 1) for d, v in worst_by_depth.items()
    }
    depths_sorted = sorted(worst_by_depth)
    result.summary["cascade_grows"] = (
        worst_by_depth[depths_sorted[-1]] > worst_by_depth[depths_sorted[0]]
    )
    return result


def _star_with(host_names: List[str]) -> Topology:
    topology = Topology(name="bc-star")
    topology.add_switch("sw")
    for name in host_names:
        topology.add_host(name)
        topology.add_link("sw", name)
    return topology


def run_synce_ablation(
    duration_fs: int = 5 * units.MS, seed: int = 31
) -> ExperimentResult:
    """DTP with and without SyncE-style frequency lock (paper Section 8).

    Syntonized oscillators never drift between beacons, so the beacon-
    interval term of the bound vanishes and only the OWD/CDC term remains:
    offsets collapse toward the 2-tick floor, the "combining DTP with
    SyncE will improve precision" expectation.
    """
    result = ExperimentResult(name="extension-synce", params={"seed": seed})
    for syntonized in (False, True):
        sim = Simulator()
        net = DtpNetwork(
            sim, chain(2), RandomStreams(seed), syntonized=syntonized,
            skews=None if syntonized else {
                "n0": ConstantSkew(100.0), "n1": ConstantSkew(-100.0)
            },
        )
        net.start()
        sim.run_until(duration_fs // 4)
        key = "synce" if syntonized else "plain"
        result.summary[f"worst_offset_ticks_{key}"] = worst_offset(net, duration_fs)
    result.summary["synce_no_worse"] = (
        result.summary["worst_offset_ticks_synce"]
        <= result.summary["worst_offset_ticks_plain"]
    )
    result.summary["synce_within_two_ticks"] = (
        result.summary["worst_offset_ticks_synce"] <= 2
    )
    return result


def run_spanning_tree_comparison(
    runaway_ppm: float = 800.0,
    duration_fs: int = 5 * units.MS,
    seed: int = 32,
) -> ExperimentResult:
    """Section 5.4: plain DTP follows a runaway clock; tree DTP does not."""
    result = ExperimentResult(
        name="extension-spanning-tree",
        params={"runaway_ppm": runaway_ppm, "seed": seed},
    )
    skews = {
        "n0": ConstantSkew(0.0),
        "n1": ConstantSkew(runaway_ppm),
        "n2": ConstantSkew(-30.0),
    }
    nominal_ticks = duration_fs // units.TICK_10G_FS
    for mode in ("plain", "tree"):
        sim = Simulator()
        net = DtpNetwork(sim, chain(3), RandomStreams(seed), skews=skews)
        if mode == "tree":
            configure_spanning_tree(net, master="n0")
        net.start()
        sim.run_until(duration_fs)
        excess = net.counter_of("n0") - nominal_ticks
        result.summary[f"master_counter_excess_{mode}"] = excess
        # 100 samples, 20 us apart, past the end of the counted run.
        result.summary[f"worst_offset_ticks_{mode}"] = worst_offset(
            net, sim.now + 2 * units.MS
        )
    result.summary["plain_follows_runaway"] = (
        result.summary["master_counter_excess_plain"] > 100
    )
    result.summary["tree_holds_master_rate"] = (
        abs(result.summary["master_counter_excess_tree"]) <= 2
    )
    return result
