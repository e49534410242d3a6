"""Integration tests for the NTP and GPS baselines."""

import pytest

from repro.clocks.clock import AdjustableFrequencyClock
from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.gps.receiver import GpsReceiver
from repro.network.packet import PacketNetwork
from repro.network.topology import star
from repro.ntp.protocol import NtpClient, NtpServer, StackJitterModel
from repro.phy.specs import PHY_10G
from repro.sim import units


def make_clock(name, ppm):
    return AdjustableFrequencyClock(
        Oscillator(PHY_10G.period_fs, ConstantSkew(ppm), name=name), name=name
    )


@pytest.fixture
def ntp_pair(sim, streams):
    network = PacketNetwork(sim, star(2))
    server_clock = make_clock("server", -4.0)
    client_clock = make_clock("client", 12.0)
    client_clock.set_time(0, 2 * units.MS)
    server = NtpServer(sim, network, "h0", server_clock, streams.stream("s"))
    client = NtpClient(
        sim, network, "h1", "h0", client_clock, streams.stream("c"),
        poll_interval_fs=4 * units.SEC,
    )
    return server, client, server_clock


class TestNtp:
    def test_client_converges_to_tens_of_microseconds(self, sim, ntp_pair):
        server, client, server_clock = ntp_pair
        client.start()
        worst_tail = 0.0
        for second in range(1, 301):
            sim.run_until(second * units.SEC)
            if second > 150:
                worst_tail = max(
                    worst_tail, abs(client.offset_to(server_clock, sim.now))
                )
        # Paper Table 1: NTP is "us"-class; our LAN model lands in the
        # tens-to-hundreds of microseconds.
        assert worst_tail < units.MS
        assert worst_tail > 100  # but it's not magically perfect

    def test_initial_step_removes_big_error(self, sim, ntp_pair):
        server, client, server_clock = ntp_pair
        client.start()
        sim.run_until(30 * units.SEC)
        assert abs(client.offset_to(server_clock, sim.now)) < 500 * units.US
        assert client.servo.steps >= 1

    def test_samples_record_delay_and_offset(self, sim, ntp_pair):
        _, client, _ = ntp_pair
        client.start()
        sim.run_until(30 * units.SEC)
        assert len(client.samples) >= 5
        for sample in client.samples:
            assert sample.delay_fs > 0

    def test_server_counts_requests(self, sim, ntp_pair):
        server, client, _ = ntp_pair
        client.start()
        sim.run_until(30 * units.SEC)
        assert server.requests_served >= 5

    def test_stop_polling(self, sim, ntp_pair):
        _, client, _ = ntp_pair
        client.start()
        sim.run_until(20 * units.SEC)
        client.stop()
        count = len(client.samples)
        sim.run_until(60 * units.SEC)
        assert len(client.samples) <= count + 1

    def test_stack_jitter_dominates_error(self, sim, streams):
        """With a zero-jitter stack, NTP gets dramatically better —
        evidence the model attributes NTP's error to the right cause."""
        network = PacketNetwork(sim, star(2))
        server_clock = make_clock("server", -4.0)
        client_clock = make_clock("client", 12.0)
        quiet = StackJitterModel(base_fs=units.US, jitter_fs=1, spike_probability=0.0)
        NtpServer(sim, network, "h0", server_clock, streams.stream("s"), stack=quiet)
        client = NtpClient(
            sim, network, "h1", "h0", client_clock, streams.stream("c"),
            poll_interval_fs=4 * units.SEC, stack=quiet,
        )
        client.start()
        worst_tail = 0.0
        for second in range(1, 201):
            sim.run_until(second * units.SEC)
            if second > 100:
                worst_tail = max(
                    worst_tail, abs(client.offset_to(server_clock, sim.now))
                )
        assert worst_tail < 5 * units.US


class TestGps:
    def test_single_receiver_error_bounded(self, streams):
        gps = GpsReceiver(streams.stream("g"))
        errors = [abs(gps.read_fs(t) - t) for t in range(0, 10**6, 10**4)]
        assert max(errors) <= gps.max_error_fs

    def test_bias_shifts_reads(self, streams):
        gps = GpsReceiver(streams.stream("g2"), bias_fs=50 * units.NS, sigma_fs=0)
        assert gps.read_fs(1000) == 1000 + 50 * units.NS
