"""Unit tests for the DTP port FSM (Algorithm 1)."""

import pytest

from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp.device import DtpDevice
from repro.dtp.messages import MessageType
from repro.dtp.port import DtpPort, DtpPortConfig, PortState
from repro.ethernet.frames import MTU_FRAME
from repro.ethernet.traffic import SaturatedTraffic
from repro.sim import units
from repro.telemetry import Telemetry
from repro.telemetry.events import EV_PEER_FAULT

TICK = units.TICK_10G_FS
CABLE_FS = 8 * TICK  # default 10.24 m


def make_pair(
    sim,
    streams,
    ppm_a=100.0,
    ppm_b=-100.0,
    config_a=None,
    config_b=None,
    telemetry=None,
):
    dev_a = DtpDevice(sim, "a", Oscillator(TICK, ConstantSkew(ppm_a)), streams.fork("a"))
    dev_b = DtpDevice(sim, "b", Oscillator(TICK, ConstantSkew(ppm_b)), streams.fork("b"))
    port_a = DtpPort(
        dev_a, "a->b", config=config_a or DtpPortConfig(), telemetry=telemetry
    )
    port_b = DtpPort(
        dev_b, "b->a", config=config_b or DtpPortConfig(), telemetry=telemetry
    )
    port_a.connect(port_b, CABLE_FS, CABLE_FS)
    return port_a, port_b


class TestInitPhase:
    def test_handshake_synchronizes_both_sides(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        assert a.state is PortState.SYNCHRONIZED
        assert b.state is PortState.SYNCHRONIZED

    def test_owd_measured_matches_paper_range(self, sim, streams):
        """Paper Section 6.1: 43-45 cycles over ~10 m."""
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        assert 42 <= a.d <= 45
        assert 42 <= b.d <= 45

    def test_measured_owd_never_exceeds_true_path(self, sim, streams):
        """The alpha=3 guarantee that keeps the network from running fast."""
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        # True path floor: tx 18 + cable 8 + rx 18 = 44 ticks.
        assert a.d <= 44
        assert b.d <= 44

    def test_link_up_without_peer_raises(self, sim, streams):
        device = DtpDevice(sim, "x", Oscillator(TICK, ConstantSkew(0.0)), streams.fork("x"))
        port = DtpPort(device, "p")
        with pytest.raises(RuntimeError):
            port.link_up()

    def test_init_retries_until_acked(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()  # peer stays down: INIT goes nowhere
        sim.run_until(2 * units.MS)
        assert a.stats.sent.get("INIT", 0) > 1
        b.link_up()
        sim.run_until(3 * units.MS)
        assert a.state is PortState.SYNCHRONIZED

    def test_t0_adopts_global_counter(self, sim, streams):
        a, b = make_pair(sim, streams)
        t = 50 * TICK
        sim.run_until(t)
        a.device.gc.set_counter(t, 999_999)
        a.link_up()
        assert a.lc.counter_at(t) == 999_999


class TestBeaconPhase:
    def test_beacons_flow_after_init(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        assert a.stats.sent.get("BEACON", 0) > 100
        assert b.stats.received.get("BEACON", 0) > 100

    def test_slow_clock_jumps_fast_never(self, sim, streams):
        fast, slow = make_pair(sim, streams, ppm_a=100.0, ppm_b=-100.0)
        fast.link_up()
        slow.link_up()
        sim.run_until(5 * units.MS)
        assert slow.stats.jumps > 0
        assert fast.stats.jumps == 0

    def test_offset_bounded_by_four_ticks(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        worst = 0
        t = sim.now
        for _ in range(500):
            t += 7 * units.US
            sim.run_until(t)
            offset = abs(
                a.device.global_counter(t) - b.device.global_counter(t)
            )
            worst = max(worst, offset)
        assert worst <= 4

    def test_beacon_cadence_respects_interval(self, sim, streams):
        config = DtpPortConfig(beacon_interval_ticks=1000)
        a, b = make_pair(sim, streams, config_a=config, config_b=config)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        # 1 ms / (1000 ticks * 6.4 ns) ~ 156 beacons.
        assert 120 <= a.stats.sent.get("BEACON", 0) <= 170

    def test_msb_beacons_sent_periodically(self, sim, streams):
        config = DtpPortConfig(msb_interval_beacons=50)
        a, b = make_pair(sim, streams, config_a=config, config_b=config)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        assert a.stats.sent.get("BEACON_MSB", 0) >= 10
        assert b.remote_msb is not None

    def test_link_down_stops_beacons(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        a.link_down()
        count = a.stats.sent.get("BEACON", 0)
        sim.run_until(2 * units.MS)
        assert a.stats.sent.get("BEACON", 0) == count


class TestLoadedLinks:
    def test_sync_holds_under_saturated_traffic(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(200 * units.US)
        start_tick = a.osc.ticks_at(sim.now) + 100
        a.traffic = SaturatedTraffic(MTU_FRAME)
        b.traffic = SaturatedTraffic(MTU_FRAME, phase=50)
        a.traffic.start_at(start_tick)
        b.traffic.start_at(start_tick)
        sim.run_until(3 * units.MS)
        offset = abs(
            a.device.global_counter(sim.now) - b.device.global_counter(sim.now)
        )
        assert offset <= 4


class TestFaultHandling:
    def test_out_of_range_beacons_rejected(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(500 * units.US)
        # Forge a wildly wrong beacon into b's processing path.
        from repro.dtp import messages as m

        bogus_counter = b.lc.counter_at(sim.now) + 1_000_000
        bits = m.SHIFTED_TYPE[m.MessageType.BEACON] | m.counter_low(bogus_counter)
        before = b.lc.counter_at(sim.now)
        b._process(bits, b.osc.ticks_at(sim.now))
        assert b.stats.rejected_out_of_range == 1
        assert b.lc.counter_at(sim.now) - before <= 1

    def test_jump_rate_fault_detector_fires(self, sim, streams):
        config = DtpPortConfig(
            fault_window_beacons=100, max_jumps_per_window=5
        )
        # A wildly fast peer (out of IEEE spec) forces constant jumps.
        telemetry = Telemetry()
        a, b = make_pair(
            sim, streams, ppm_a=5000.0, ppm_b=0.0,
            config_a=config, config_b=config, telemetry=telemetry,
        )
        a.link_up()
        b.link_up()
        sim.run_until(5 * units.MS)
        assert b.peer_faulty
        # b's trip is traced first, with the window's jump count; b then
        # ignores a's beacons, so its window never rolls again.
        trips = [
            (sid, jumps)
            for _, kind, sid, jumps, _ in telemetry.tracer.records
            if kind == EV_PEER_FAULT
        ]
        assert trips[0][0] == b._sid and trips[0][1] > 5
        assert [sid for sid, _ in trips].count(b._sid) == 1

    def test_parity_mode_roundtrip(self, sim, streams):
        config_a = DtpPortConfig(parity=True)
        config_b = DtpPortConfig(parity=True)
        a, b = make_pair(sim, streams, config_a=config_a, config_b=config_b)
        a.link_up()
        b.link_up()
        sim.run_until(2 * units.MS)
        offset = abs(
            a.device.global_counter(sim.now) - b.device.global_counter(sim.now)
        )
        assert offset <= 4
        assert b.stats._rejected["parity"].value == 0

    def test_parity_rejects_lsb_corruption(self, sim, streams):
        config = DtpPortConfig(parity=True)
        a, b = make_pair(sim, streams, config_a=config, config_b=config)
        a.link_up()
        b.link_up()
        sim.run_until(500 * units.US)
        from repro.dtp import messages as m

        good = m.payload_with_parity(b.lc.counter_at(sim.now))
        corrupted = good ^ 0b1  # flip an LSB: parity now wrong
        bits = m.SHIFTED_TYPE[m.MessageType.BEACON] | corrupted
        b._process(bits, b.osc.ticks_at(sim.now))
        assert b.stats._rejected["parity"].value == 1

    def test_undecodable_message_dropped(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(500 * units.US)
        bits = (0b111 << 53) | 42  # invalid type code
        b._process(bits, b.osc.ticks_at(sim.now))
        assert b.stats._rejected["undecodable"].value == 1


class TestLogChannel:
    def test_log_offset_within_four_ticks(self, sim, streams):
        a, b = make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(units.MS)
        offsets = []
        b.on_log = lambda offset, counter, t: offsets.append(offset)
        for _ in range(100):
            a.send_log()
            sim.run_until(sim.now + 10 * units.US)
        assert offsets
        assert all(-4 <= o <= 4 for o in offsets)


class TestStatsCells:
    def test_cells_exist_from_first_use_and_all_of_them_once_bound(self, sim, streams):
        from repro.telemetry.registry import MetricsRegistry

        a, b = make_pair(sim, streams)
        assert not a.stats._sent and not a.stats._received and not a.stats._rejected
        assert a.stats.sent == {} and a.stats._rejected["parity"].value == 0
        a.link_up()
        b.link_up()
        sim.run_until(500 * units.US)
        assert set(a.stats._sent) == set(a.stats.sent) == {"INIT", "INIT_ACK", "BEACON", "BEACON_JOIN"}
        with pytest.raises(KeyError):
            a.stats._sent["BACON"]
        # A registry still gets every family member, counted so far or not.
        registry = MetricsRegistry()
        sent = a.stats.sent
        a.stats.bind_registry(registry, a.name)
        assert set(a.stats._sent) == {mtype.name for mtype in MessageType}
        assert len(a.stats._rejected) == 3 and a.stats.sent == sent
        family = registry.get("dtp_messages_sent_total")
        assert family.labels(port=a.name, type="BEACON").value == sent["BEACON"]
