"""Tests for the bound monitor and packet-network conservation laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.monitor import BoundMonitor
from repro.dtp.network import DtpNetwork
from repro.faultlab.faults import FaultContext, TwoFacedNode
from repro.network.packet import PacketNetwork
from repro.network.topology import chain, paper_testbed, star
from repro.sim import units
from repro.sim.engine import Simulator


class TestBoundMonitor:
    def test_healthy_network_stays_quiet(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        sim.run_until(units.MS)
        monitor = BoundMonitor(net, [("n0", "n1")])
        sim.run_until(6 * units.MS)
        assert monitor.samples_seen > 30
        assert monitor.healthy
        assert not monitor.alerts

    def test_split_network_alarms(self, sim, streams):
        """A two-faced clock (large lie) splits the network; the monitor
        notices on the victim->honest direction.

        (Monitoring the liar's own outgoing link is useless: it stamps
        LOG records with the same lie, so that channel reads healthy —
        monitor both directions in production.)"""
        net = DtpNetwork(
            sim, chain(3), streams,
            skews={n: ConstantSkew(0.0) for n in ("n0", "n1", "n2")},
        )
        TwoFacedNode("n1", "n2", lie_ticks=1000).arm(
            FaultContext(network=net, streams=net.streams)
        )
        net.start()
        sim.run_until(units.MS)
        alarms = []
        monitor = BoundMonitor(
            net, [("n2", "n1")], on_alarm=alarms.append
        )
        sim.run_until(6 * units.MS)
        assert not monitor.healthy
        assert alarms
        assert alarms[0].link == "n2-n1"
        assert abs(alarms[0].offset_ticks) > monitor.bound_ticks

    def test_single_violation_does_not_alarm(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        sim.run_until(units.MS)
        monitor = BoundMonitor(net, [("n0", "n1")], violations_to_alarm=3)
        # Inject one bogus sample directly.
        monitor._windows["n0-n1"].append(True)
        monitor.alerts.append(None)
        assert monitor.healthy  # one blip is below the alarm threshold

    def test_monitor_on_paper_testbed(self, sim, streams):
        topo = paper_testbed()
        net = DtpNetwork(sim, topo, streams)
        net.start()
        sim.run_until(units.MS)
        pairs = [(edge.a, edge.b) for edge in topo.edges]
        monitor = BoundMonitor(net, pairs)
        sim.run_until(4 * units.MS)
        assert monitor.healthy
        assert monitor.samples_seen > len(pairs) * 20


class TestPacketConservation:
    @given(
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # src host index
                st.integers(min_value=0, max_value=3),  # dst host index
                st.integers(min_value=64, max_value=1500),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_no_loss_no_duplication_under_capacity(self, sends):
        """With roomy queues, every sent packet arrives exactly once."""
        sim = Simulator()
        net = PacketNetwork(sim, star(4), queue_capacity_bytes=10**7)
        received = []
        for i in range(4):
            net.host(f"h{i}").register_handler(
                "t", lambda p, f, l: received.append(p.packet_id)
            )
        sent_ids = []
        for src, dst, size in sends:
            if src == dst:
                continue
            packet = net.send(f"h{src}", f"h{dst}", size, "t")
            sent_ids.append(packet.packet_id)
        sim.run()
        assert sorted(received) == sorted(sent_ids)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_property_drops_accounted(self, seed):
        """Sent = delivered + dropped, exactly, even under overload."""
        import random

        sim = Simulator()
        net = PacketNetwork(sim, star(3), queue_capacity_bytes=8 * 1024)
        rng = random.Random(seed)
        delivered = [0]
        net.host("h0").register_handler(
            "t", lambda p, f, l: delivered.__setitem__(0, delivered[0] + 1)
        )
        total = 80
        for _ in range(total):
            src = rng.choice(["h1", "h2"])
            net.send(src, "h0", 1500, "t")
        sim.run()
        dropped = sum(
            iface.queue.dropped
            for node in net.nodes.values()
            for iface in node.interfaces.values()
        )
        assert delivered[0] + dropped == total
