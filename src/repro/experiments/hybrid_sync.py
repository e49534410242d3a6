"""Experiment: DTP-assisted PTP vs plain PTP under heavy load (§5.2).

Both distribute UTC from a timeserver over a congested packet network.
Plain PTP must *guess* the path delay (halved RTT, min-filtered), so
asymmetric queueing becomes clock error.  The hybrid scheme measures each
packet's actual one-way delay with DTP counters, so queueing contributes
nothing and the residual is just the daemons' read error.
"""

from __future__ import annotations


from ..clocks.oscillator import ConstantSkew
from ..clocks.tsc import TscCounter
from ..dtp.daemon import DtpDaemon
from ..dtp.hybrid import HybridTimeMaster, HybridTimeSlave
from ..dtp.network import DtpNetwork
from ..dtp.port import DtpPortConfig
from ..network.packet import PacketNetwork
from ..network.topology import star
from ..network.virtualload import heavy_backlog
from ..ptp.network import PtpConfig, PtpDeployment
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from .harness import ExperimentResult, peak_after, steps


def _measure_plain_ptp(duration_fs: int, seed: int) -> float:
    """Worst tail offset of a loaded PTP slave (fs)."""
    sim = Simulator()
    deployment = PtpDeployment(
        sim, star(3), RandomStreams(seed), master="h0", config=PtpConfig()
    )
    deployment.apply_load("heavy")
    deployment.start()
    warmup = duration_fs // 2
    grid = steps(sim, units.SEC, duration_fs)
    offsets = (abs(deployment.true_offset_fs("h1", t)) for t in grid if t > warmup)
    return peak_after(offsets, warmup, duration_fs)


def _measure_hybrid(duration_fs: int, seed: int) -> float:
    """Worst tail UTC error of a DTP-assisted slave under the same load."""
    sim = Simulator()
    streams = RandomStreams(seed)
    topology = star(3)
    # Control plane: DTP synchronizes the NIC counters.
    dtp = DtpNetwork(
        sim, topology, streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    dtp.start()
    # Data plane: heavily loaded packet network.
    packets = PacketNetwork(sim, topology)
    index = 0
    for node in packets.nodes.values():
        for iface in node.interfaces.values():
            iface.virtual_load = heavy_backlog(streams.stream(f"load/{index}"))
            index += 1
    sim.run_until(2 * units.MS)
    daemons = {}
    for i, name in enumerate(("h0", "h1")):
        tsc = TscCounter(skew=ConstantSkew(3.0 * i - 4.0), name=f"tsc/{name}")
        daemons[name] = DtpDaemon(
            sim, dtp.devices[name], tsc, streams.stream(f"daemon/{name}"),
            sample_interval_fs=units.MS, smoothing_window=4,
        )
        daemons[name].start()
    sim.run_until(8 * units.MS)
    master = HybridTimeMaster(
        sim, packets, "h0", daemons["h0"], slaves=["h1"],
        sync_interval_fs=5 * units.MS,
    )
    slave = HybridTimeSlave(sim, packets, "h1", daemons["h1"])
    master.start()
    warmup = sim.now + duration_fs // 2
    deadline = sim.now + duration_fs
    grid = steps(sim, 5 * units.MS, deadline)
    errors = (slave.utc_error_fs(t) for t in grid if t > warmup)
    return peak_after((abs(e) for e in errors if e is not None), warmup, deadline)


def run_hybrid_comparison(
    ptp_duration_fs: int = 200 * units.SEC,
    hybrid_duration_fs: int = 100 * units.MS,
    seed: int = 60,
) -> ExperimentResult:
    """Both schemes under heavy load; the hybrid should win by orders."""
    result = ExperimentResult(name="hybrid-dtp-assisted-ptp", params={"seed": seed})
    plain = _measure_plain_ptp(ptp_duration_fs, seed)
    hybrid = _measure_hybrid(hybrid_duration_fs, seed + 1)
    result.summary["plain_ptp_worst_us"] = round(plain / units.US, 3)
    result.summary["hybrid_worst_ns"] = round(hybrid / units.NS, 1)
    result.summary["improvement_factor"] = round(plain / max(hybrid, 1.0), 1)
    result.summary["hybrid_immune_to_load"] = hybrid < units.US <= plain
    return result
