"""Tests for DTP-assisted external synchronization (paper Section 5.2)."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.clocks.tsc import TscCounter
from repro.dtp.daemon import DtpDaemon
from repro.dtp.hybrid import HybridTimeMaster, HybridTimeSlave
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.network.packet import PacketNetwork
from repro.network.topology import star
from repro.network.virtualload import heavy_backlog
from repro.sim import units


@pytest.fixture
def hybrid_setup(sim, streams):
    topology = star(3)
    dtp = DtpNetwork(
        sim, topology, streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    dtp.start()
    packets = PacketNetwork(sim, topology)
    sim.run_until(2 * units.MS)
    daemons = {}
    for i, name in enumerate(("h0", "h1")):
        tsc = TscCounter(skew=ConstantSkew(2.0 * i - 3.0), name=f"tsc/{name}")
        daemons[name] = DtpDaemon(
            sim, dtp.devices[name], tsc, streams.stream(f"d/{name}"),
            sample_interval_fs=units.MS, smoothing_window=4,
        )
        daemons[name].start()
    sim.run_until(8 * units.MS)
    return dtp, packets, daemons


def test_hybrid_sync_idle_network(sim, streams, hybrid_setup):
    dtp, packets, daemons = hybrid_setup
    master = HybridTimeMaster(
        sim, packets, "h0", daemons["h0"], slaves=["h1"],
        sync_interval_fs=5 * units.MS,
    )
    slave = HybridTimeSlave(sim, packets, "h1", daemons["h1"])
    master.start()
    sim.run_until(sim.now + 50 * units.MS)
    error = slave.utc_error_fs(sim.now)
    assert error is not None
    assert abs(error) < 300 * units.NS
    assert len(slave.samples) >= 8


def test_hybrid_sync_survives_heavy_load(sim, streams, hybrid_setup):
    """The whole point: per-packet measured OWD makes load irrelevant."""
    dtp, packets, daemons = hybrid_setup
    index = 0
    for node in packets.nodes.values():
        for iface in node.interfaces.values():
            iface.virtual_load = heavy_backlog(streams.stream(f"l/{index}"))
            index += 1
    master = HybridTimeMaster(
        sim, packets, "h0", daemons["h0"], slaves=["h1"],
        sync_interval_fs=5 * units.MS,
    )
    slave = HybridTimeSlave(sim, packets, "h1", daemons["h1"])
    master.start()
    sim.run_until(sim.now + 60 * units.MS)
    error = slave.utc_error_fs(sim.now)
    assert error is not None
    assert abs(error) < 300 * units.NS  # ns-scale despite ~hundreds-of-us queues
    # The measured per-packet OWDs really did see the congestion:
    owds = [s.owd_counter_units for s in slave.samples]
    assert max(owds) > 1000  # hundreds of microseconds of queueing, in ticks


def test_slave_none_before_first_sync(sim, streams, hybrid_setup):
    _, packets, daemons = hybrid_setup
    slave = HybridTimeSlave(sim, packets, "h1", daemons["h1"])
    assert slave.get_utc(sim.now) is None
    assert slave.utc_error_fs(sim.now) is None


def test_master_utc_bias_propagates(sim, streams, hybrid_setup):
    _, packets, daemons = hybrid_setup
    bias = 2 * units.US
    master = HybridTimeMaster(
        sim, packets, "h0", daemons["h0"], slaves=["h1"],
        utc_error_fs=bias, sync_interval_fs=5 * units.MS,
    )
    slave = HybridTimeSlave(sim, packets, "h1", daemons["h1"])
    master.start()
    sim.run_until(sim.now + 40 * units.MS)
    assert slave.utc_error_fs(sim.now) == pytest.approx(bias, abs=units.US / 2)


def test_comparison_experiment(assert_claims):
    assert_claims("hybrid/immune-to-load", "hybrid/over-50x")
