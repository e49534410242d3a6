"""Unit tests for fault-injection helpers and Section 5.4 scenarios."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.analysis import (
    expected_partition_divergence_ticks,
    runaway_skews,
)
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.faultlab.faults import FaultContext, Partition
from repro.network.topology import chain
from repro.sim import units


def test_runaway_skews_map():
    skews = runaway_skews(["a", "b", "c"], runaway_node="b", runaway_ppm=500.0)
    assert skews["b"].ppm == 500.0
    assert skews["a"].ppm == 0.0


def test_partition_scheduling_validates_order(sim, streams):
    net = DtpNetwork(sim, chain(2), streams)
    with pytest.raises(ValueError):
        Partition("n0", "n1", down_at_fs=10, up_at_fs=5).arm(
            FaultContext(network=net, streams=net.streams)
        )


def test_expected_divergence_math():
    # 1 ms apart at 200 ppm gap: 1e12/6.4e6 ticks * 2e-4 = 31.25 ticks.
    ticks = expected_partition_divergence_ticks(units.MS, 200.0)
    assert ticks == pytest.approx(31.25)


def test_network_follows_runaway_oscillator(sim, streams):
    """Section 5.4: everyone follows the fastest clock, even out-of-spec."""
    skews = {
        "n0": ConstantSkew(500.0),  # out of the IEEE envelope
        "n1": ConstantSkew(0.0),
    }
    net = DtpNetwork(sim, chain(2), streams, skews=skews)
    net.start()
    sim.run_until(5 * units.MS)
    # n1's counter must have been dragged up to the runaway's rate:
    # 5 ms at +500 ppm = ~390 extra ticks over nominal.
    nominal_ticks = 5 * units.MS // units.TICK_10G_FS
    assert net.counter_of("n1") > nominal_ticks + 300


def test_fault_detector_quarantines_runaway(sim, streams):
    """With jump-rate detection on, the sane node stops following."""
    config = DtpPortConfig(fault_window_beacons=200, max_jumps_per_window=20)
    skews = {
        "n0": ConstantSkew(800.0),
        "n1": ConstantSkew(0.0),
    }
    net = DtpNetwork(sim, chain(2), streams, config=config, skews=skews)
    net.start()
    sim.run_until(10 * units.MS)
    sane_port = net.ports[("n1", "n0")]
    assert sane_port.peer_faulty
