"""Unit tests for Table 1's overhead accounting, SyncE, and ASCII rendering."""

import pytest

from repro.dtp.network import DtpNetwork
from repro.experiments.asciiplot import render_series
from repro.experiments.harness import TimeSeries
from repro.experiments.table1 import _measure_dtp, _packets_sent
from repro.experiments.table2 import expected_dtp_message_rate
from repro.network.packet import PacketNetwork
from repro.network.topology import chain, star
from repro.phy.specs import PHY_10G
from repro.sim import units


class TestOverhead:
    def test_dtp_zero_packets(self):
        _, packets, messages_per_link_per_s = _measure_dtp(1, 2 * units.MS)
        assert packets == 0
        assert messages_per_link_per_s > 100_000  # "hundreds of thousands"

    def test_expected_message_rate_matches_paper(self):
        """200-tick beacons = 781,250 messages/s per direction."""
        rate = expected_dtp_message_rate(200, PHY_10G.period_fs)
        assert rate == pytest.approx(781_250, rel=1e-6)

    def test_measured_rate_close_to_expected(self):
        _, _, messages_per_link_per_s = _measure_dtp(1, 4 * units.MS)
        expected = 2 * expected_dtp_message_rate(200, PHY_10G.period_fs)
        assert messages_per_link_per_s == pytest.approx(expected, rel=0.1)

    def test_packet_overhead_counts_wire_traffic(self, sim, streams):
        net = PacketNetwork(sim, star(2))
        for _ in range(10):
            net.send("h0", "h1", 100, "ptp_sync")
        sim.run()
        assert _packets_sent(net) == 20  # h0 -> switch -> h1: two hops each


class TestSyncE:
    def test_syntonized_network_shares_frequency(self, sim, streams):
        net = DtpNetwork(sim, chain(3), streams, syntonized=True)
        periods = {
            dev.oscillator.time_of_tick(2) - dev.oscillator.time_of_tick(1)
            for dev in net.devices.values()
        }
        assert len(periods) == 1

    def test_syntonized_offsets_tighter(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams, syntonized=True)
        net.start()
        sim.run_until(units.MS)
        worst = 0
        t = sim.now
        for _ in range(200):
            t += 20 * units.US
            sim.run_until(t)
            worst = max(worst, net.max_abs_offset())
        assert worst <= 2  # beacon-drift term gone; CDC term remains


class TestAsciiPlot:
    def make_series(self):
        series = TimeSeries(label="offsets")
        for i in range(50):
            series.append(i, (i % 5) - 2)
        return series

    def test_render_series_has_frame_and_label(self):
        text = render_series(self.make_series())
        assert "offsets" in text
        assert text.count("|") >= 28  # 14 rows x 2 borders
        assert "*" in text or "#" in text

    def test_render_empty_series(self):
        assert "empty" in render_series(TimeSeries(label="x"))

    def test_render_series_respects_bounds(self):
        text = render_series(self.make_series(), y_bounds=(-10, 10))
        assert "[-10.00 .. 10.00]" in text
