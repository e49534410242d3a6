"""Edge-case battery across subsystems: the paths happy tests miss."""

import pytest

from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp import messages as dtpmsg
from repro.dtp.device import DtpDevice
from repro.dtp.external import UtcBroadcast, UtcSlave
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPort, PortState
from repro.ethernet.frames import MTU_FRAME
from repro.ethernet.traffic import SaturatedTraffic
from repro.network.topology import chain, star
from repro.sim import units

TICK = units.TICK_10G_FS


class TestPortEdgeCases:
    def make_pair(self, sim, streams):
        dev_a = DtpDevice(sim, "a", Oscillator(TICK, ConstantSkew(10.0)), streams.fork("a"))
        dev_b = DtpDevice(sim, "b", Oscillator(TICK, ConstantSkew(-10.0)), streams.fork("b"))
        port_a = DtpPort(dev_a, "a->b")
        port_b = DtpPort(dev_b, "b->a")
        port_a.connect(port_b, 8 * TICK, 8 * TICK)
        return port_a, port_b

    def test_duplicate_init_ack_ignored(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        assert a.state is PortState.SYNCHRONIZED
        d_before = a.d
        # Replay an old INIT_ACK: must not re-measure.
        bits = dtpmsg.SHIFTED_TYPE[dtpmsg.MessageType.INIT_ACK] | 12345
        a._process(bits, a.osc.ticks_at(sim.now))
        assert a.d == d_before

    def test_beacon_before_init_ignored(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()  # INIT state; d is None
        bits = dtpmsg.SHIFTED_TYPE[dtpmsg.MessageType.BEACON] | 500
        a._process(bits, a.osc.ticks_at(sim.now))  # must not crash nor adjust
        assert a.stats.jumps == 0

    def test_join_before_init_ignored(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()
        bits = dtpmsg.SHIFTED_TYPE[dtpmsg.MessageType.BEACON_JOIN] | 999_999
        before = a.lc.counter_at(sim.now)
        a._process(bits, a.osc.ticks_at(sim.now))
        assert a.lc.counter_at(sim.now) - before <= 1

    def test_message_to_down_port_dropped(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        b.link_down()
        count = b.stats.received.get("BEACON", 0)
        sim.run_until(300 * units.US)
        assert b.stats.received.get("BEACON", 0) == count

    def test_relink_measures_fresh_owd(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        a.link_down()
        b.link_down()
        assert a.d is None
        sim.run_until(200 * units.US)
        a.link_up()
        b.link_up()
        sim.run_until(500 * units.US)
        assert a.d is not None
        assert a.state is PortState.SYNCHRONIZED

    def test_log_without_callback_is_harmless(self, sim, streams):
        a, b = self.make_pair(sim, streams)
        a.link_up()
        b.link_up()
        sim.run_until(100 * units.US)
        a.send_log()  # b has no on_log registered
        sim.run_until(200 * units.US)
        assert b.stats.received.get("LOG", 0) == 1


class TestTrafficInterplay:
    def test_install_traffic_then_log(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        net.install_traffic(
            lambda i, d: SaturatedTraffic(MTU_FRAME, phase=i), start_tick=10_000
        )
        net.attach_logger("n0", "n1")
        sim.run_until(units.MS)
        for _ in range(30):
            net.send_log("n0", "n1")
            sim.run_until(sim.now + 20 * units.US)
        samples = net.logged_for("n0", "n1")
        assert len(samples) == 30
        assert all(abs(s.offset_ticks) <= 4 for s in samples)

    def test_logged_for_unknown_pair_empty(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        assert net.logged_for("n1", "n0") == []


class TestUtcSlaveEdges:
    def test_history_capped(self):
        class FakeDaemon:
            class device:
                class oscillator:
                    nominal_period_fs = TICK

                counter_increment = 1

        slave = UtcSlave(FakeDaemon(), history=3)
        for i in range(10):
            slave.on_broadcast(UtcBroadcast(counter=i * 1000, utc_fs=i * units.MS))
        assert len(slave.pairs) == 3

    def test_zero_counter_delta_keeps_previous_ratio(self):
        class FakeDaemon:
            class device:
                class oscillator:
                    nominal_period_fs = TICK

                counter_increment = 1

        slave = UtcSlave(FakeDaemon(), history=4)
        before = slave._fs_per_count
        slave.on_broadcast(UtcBroadcast(counter=100, utc_fs=0))
        slave.on_broadcast(UtcBroadcast(counter=100, utc_fs=units.MS))
        assert slave._fs_per_count == before


class TestNetworkApiEdges:
    def test_max_abs_offset_with_empty_nodes(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        assert net.max_abs_offset(nodes=[]) == 0

    def test_counter_of_defaults_to_now(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        sim.run_until(units.MS)
        assert net.counter_of("n0") == net.counter_of("n0", sim.now)

    def test_down_unknown_link_raises(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        with pytest.raises(KeyError):
            net.down_link("n0", "ghost")

    def test_start_twice_is_harmless(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        net.start()  # extra link_up on live ports re-runs INIT
        sim.run_until(2 * units.MS)
        assert net.all_synchronized()
        assert net.max_abs_offset() <= 8


class TestPtpEdges:
    def test_follow_up_with_wrong_seq_ignored(self, sim, streams):
        from repro.clocks.clock import AdjustableFrequencyClock
        from repro.network.packet import PacketNetwork
        from repro.phy.specs import PHY_10G
        from repro.ptp.slave import PtpSlave

        net = PacketNetwork(sim, star(2))
        clock = AdjustableFrequencyClock(
            Oscillator(PHY_10G.period_fs, ConstantSkew(0.0))
        )
        slave = PtpSlave(
            sim, net, "h0", "h1", clock, streams.stream("s"),
        )
        # Sync seq 5 arrives...
        from repro.network.packet import Packet

        sync = Packet(src="h1", dst="h0", size_bytes=86, kind="ptp_sync",
                      payload={"seq": 5})
        slave._on_sync(sync, 0, 100)
        follow = Packet(src="h1", dst="h0", size_bytes=86, kind="ptp_followup",
                        payload={"seq": 9, "t1_fs": 0.0})
        slave._on_follow_up(follow, 0, 100)  # wrong seq: no delay_req
        sim.run()
        assert slave.exchanges_completed == 0

    def test_disabled_slave_ignores_sync(self, sim, streams):
        from repro.clocks.clock import AdjustableFrequencyClock
        from repro.network.packet import Packet, PacketNetwork
        from repro.phy.specs import PHY_10G
        from repro.ptp.slave import PtpSlave

        net = PacketNetwork(sim, star(2))
        clock = AdjustableFrequencyClock(
            Oscillator(PHY_10G.period_fs, ConstantSkew(0.0))
        )
        slave = PtpSlave(sim, net, "h0", "h1", clock, streams.stream("s"))
        slave.enabled = False
        sync = Packet(src="h1", dst="h0", size_bytes=86, kind="ptp_sync",
                      payload={"seq": 1})
        slave._on_sync(sync, 0, 100)
        assert slave.syncs_seen == 0
