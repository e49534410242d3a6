"""Tests for the applications package (Section 1's motivations)."""

import pytest

from repro.apps.owd import OneWayDelayMeter
from repro.apps.tdma import TdmaSchedule, run_tdma_round
from repro.clocks.oscillator import ConstantSkew
from repro.clocks.tsc import TscCounter
from repro.dtp.daemon import DtpDaemon
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.network.packet import PacketNetwork
from repro.network.topology import star
from repro.network.virtualload import heavy_backlog
from repro.sim import units


def worst_error_fs(meter):
    return max(abs(s.owd_fs - s.true_owd_fs) for s in meter.samples)


def collision_fraction(receiver, threshold_fs=100 * units.NS):
    """Fraction of frames that hit meaningful queueing."""
    delays = receiver.queueing_delays_fs
    return sum(1 for d in delays if d > threshold_fs) / len(delays)


@pytest.fixture
def dual_plane(sim, streams):
    """DTP control plane + packet data plane on a small star."""
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


class TestOwdMeter:
    def test_owd_error_is_daemon_scale(self, sim, dual_plane):
        dtp, packets, daemons = dual_plane
        meter = OneWayDelayMeter(sim, packets, daemons)
        for _ in range(40):
            meter.probe("h0", "h1")
            sim.run_until(sim.now + 300 * units.US)
        assert len(meter.samples) == 40
        assert worst_error_fs(meter) < 500 * units.NS

    def test_owd_sees_congestion_truthfully(self, sim, streams, dual_plane):
        dtp, packets, daemons = dual_plane
        # Congest the switch->h1 egress; the METER should report the
        # inflated delays accurately (error stays small).
        packets.switches["sw0"].interfaces["h1"].virtual_load = heavy_backlog(
            streams.stream("cong")
        )
        meter = OneWayDelayMeter(sim, packets, daemons)
        for _ in range(30):
            meter.probe("h0", "h1")
            sim.run_until(sim.now + 300 * units.US)
        owds = [s.owd_fs for s in meter.samples]
        assert max(owds) > 50 * units.US  # congestion visible
        assert worst_error_fs(meter) < 500 * units.NS  # but measured truly

    def test_probe_requires_daemons(self, sim, dual_plane):
        _, packets, daemons = dual_plane
        meter = OneWayDelayMeter(sim, packets, daemons)
        with pytest.raises(KeyError):
            meter.probe("h0", "h2")  # h2 has no daemon


class TestTdma:
    def test_schedule_geometry(self):
        schedule = TdmaSchedule(senders=("a", "b"), slot_fs=1000, rounds=3)
        assert schedule.slot_start_fs(0, 0) == 0
        assert schedule.slot_start_fs(0, 1) == 1000
        assert schedule.slot_start_fs(1, 0) == 2000

    def test_tight_clocks_no_collisions(self):
        receiver = run_tdma_round(clock_error_fs=26 * units.NS, rounds=100)
        assert collision_fraction(receiver) == 0.0
        assert receiver.worst_queueing_fs() < 100 * units.NS

    def test_loose_clocks_collide(self):
        tight = run_tdma_round(clock_error_fs=26 * units.NS, rounds=100)
        loose = run_tdma_round(clock_error_fs=150_000 * units.NS, rounds=100)
        assert loose.worst_queueing_fs() > 10 * tight.worst_queueing_fs() + units.US
        assert collision_fraction(loose) > 0.1

    def test_all_frames_delivered(self):
        receiver = run_tdma_round(clock_error_fs=0, senders=3, rounds=50)
        assert len(receiver.queueing_delays_fs) == 150

