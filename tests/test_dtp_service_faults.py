"""Tests for the clock-service facade and extended fault scenarios."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.dtp.service import DtpClockService
from repro.faultlab.faults import FaultContext, LinkFlap, SteppedSkew
from repro.network.topology import chain, paper_testbed
from repro.sim import units


@pytest.fixture
def synced_pair(sim, streams):
    net = DtpNetwork(
        sim, chain(2), streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    net.start()
    sim.run_until(units.MS)
    return net


class TestClockService:
    def test_counter_tracks_network(self, sim, streams, synced_pair):
        service = DtpClockService(synced_pair, "n0")
        sim.run_until(8 * units.MS)
        estimate = service.get_counter()
        truth = synced_pair.devices["n0"].global_counter(sim.now)
        assert abs(estimate - truth) <= 100  # spikes included

    def test_precision_bound(self, sim, streams):
        net = DtpNetwork(sim, paper_testbed(), streams)
        net.start()
        sim.run_until(units.MS)
        service = DtpClockService(net, "S4")
        # D = 4 hops: (16 + 8) ticks * 6.4 ns.
        assert service.precision_bound_ns() == pytest.approx(153.6)

    def test_unknown_host_rejected(self, sim, streams, synced_pair):
        with pytest.raises(KeyError):
            DtpClockService(synced_pair, "nope")

    def test_utc_before_sync_is_none(self, sim, streams, synced_pair):
        service = DtpClockService(synced_pair, "n0")
        sim.run_until(5 * units.MS)
        assert service.get_utc_fs() is None

    def test_utc_master_slave_flow(self, sim, streams, synced_pair):
        master = DtpClockService(synced_pair, "n0")
        slave = DtpClockService(synced_pair, "n1", tsc_skew=ConstantSkew(4.0))
        sim.run_until(8 * units.MS)
        master.serve_utc(broadcast_interval_fs=5 * units.MS)
        slave.follow_utc(master)
        sim.run_until(40 * units.MS)
        utc = slave.get_utc_fs()
        assert utc is not None
        assert abs(utc - sim.now) < 500 * units.NS

    def test_follow_without_serving_raises(self, sim, streams, synced_pair):
        a = DtpClockService(synced_pair, "n0")
        b = DtpClockService(synced_pair, "n1")
        with pytest.raises(RuntimeError):
            b.follow_utc(a)


class TestFlappingLink:
    def test_sync_survives_flapping(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        sim.run_until(units.MS)
        LinkFlap(
            "n0", "n1",
            down_every_fs=2 * units.MS,
            down_for_fs=200 * units.US,
            start_fs=2 * units.MS,
            flaps=4,
        ).arm(FaultContext(network=net, streams=net.streams))
        sim.run_until(12 * units.MS)
        assert net.all_synchronized()
        worst = 0
        t = sim.now
        for _ in range(100):
            t += 20 * units.US
            sim.run_until(t)
            worst = max(worst, net.max_abs_offset())
        assert worst <= 8

    def test_flap_counts(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        sim.run_until(units.MS)
        flapper = LinkFlap(
            "n0", "n1",
            down_every_fs=units.MS,
            down_for_fs=100 * units.US,
            start_fs=2 * units.MS,
            flaps=3,
        )
        flapper.arm(FaultContext(network=net, streams=net.streams))
        sim.run_until(10 * units.MS)
        assert flapper.flap_count == 3

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError):
            LinkFlap("n0", "n1", down_every_fs=100, down_for_fs=100)


def _step_rate(net, node, at_fs, new_ppm):
    """A permanent frequency step (thermal shock) on ``node`` at ``at_fs``:
    the oscillator picks the new rate up at its next segment boundary."""
    oscillator = net.devices[node].oscillator
    oscillator.skew = SteppedSkew(oscillator.skew, at_fs, new_ppm)


class TestOscillatorStep:
    def test_step_changes_rate(self, sim, streams):
        net = DtpNetwork(
            sim, chain(2), streams,
            skews={"n0": ConstantSkew(0.0), "n1": ConstantSkew(0.0)},
        )
        net.start()
        _step_rate(net, "n1", 2 * units.MS, 80.0)
        sim.run_until(10 * units.MS)
        osc = net.devices["n1"].oscillator
        after = osc.ticks_at(9 * units.MS) + 1
        assert (
            osc.time_of_tick(after + 1) - osc.time_of_tick(after)
            < osc.time_of_tick(2) - osc.time_of_tick(1)
        )

    def test_sync_rides_through_thermal_shock(self, sim, streams):
        net = DtpNetwork(
            sim, chain(2), streams,
            skews={"n0": ConstantSkew(0.0), "n1": ConstantSkew(-50.0)},
        )
        net.start()
        _step_rate(net, "n1", 3 * units.MS, 95.0)
        sim.run_until(4 * units.MS)
        worst = 0
        t = sim.now
        for _ in range(300):
            t += 20 * units.US
            sim.run_until(t)
            worst = max(worst, net.max_abs_offset())
        assert worst <= 4  # still in spec, still bounded
