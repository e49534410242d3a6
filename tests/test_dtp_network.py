"""Integration tests for DTP networks: multi-hop, dynamics, failures."""

import pytest

from repro.clocks.oscillator import ConstantSkew
from repro.dtp.network import DtpNetwork
from repro.dtp.port import PortState
from repro.faultlab.faults import FaultContext, Partition
from repro.network.topology import chain, paper_testbed, star, two_level_tree
from repro.sim import units


def worst_offset_over(net, sim, start_fs, end_fs, step_fs=20 * units.US, nodes=None):
    worst = 0
    t = max(start_fs, sim.now)
    sim.run_until(t)
    while t < end_fs:
        t += step_fs
        sim.run_until(t)
        worst = max(worst, net.max_abs_offset(nodes, t))
    return worst


class TestTwoNode:
    def test_extreme_skews_stay_within_bound(self, sim, streams):
        net = DtpNetwork(
            sim, chain(2), streams,
            skews={"n0": ConstantSkew(100.0), "n1": ConstantSkew(-100.0)},
        )
        net.start()
        assert worst_offset_over(net, sim, units.MS, 5 * units.MS) <= 4

    def test_identical_clocks_nearly_zero_offset(self, sim, streams):
        net = DtpNetwork(
            sim, chain(2), streams,
            skews={"n0": ConstantSkew(0.0), "n1": ConstantSkew(0.0)},
        )
        net.start()
        assert worst_offset_over(net, sim, units.MS, 3 * units.MS) <= 2

    def test_all_ports_synchronized(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        sim.run_until(units.MS)
        assert net.all_synchronized()


class TestMultiHop:
    def test_star_bound(self, sim, streams):
        net = DtpNetwork(sim, star(4), streams)
        net.start()
        # Any two hosts are 2 hops apart: bound 8 ticks.
        assert worst_offset_over(net, sim, units.MS, 4 * units.MS) <= 8

    def test_paper_testbed_bound(self, sim, streams):
        topo = paper_testbed()
        net = DtpNetwork(sim, topo, streams)
        net.start()
        bound = 4 * topo.diameter_hops()
        assert worst_offset_over(net, sim, units.MS, 4 * units.MS) <= bound

    def test_six_hop_chain_bound(self, sim, streams):
        net = DtpNetwork(sim, chain(7), streams)
        net.start()
        worst = worst_offset_over(
            net, sim, units.MS, 4 * units.MS, nodes=["n0", "n6"]
        )
        assert worst <= 24  # 4 * 6 = paper's 153.6 ns at 10 GbE

    def test_adjacent_pairs_within_four(self, sim, streams):
        topo = two_level_tree(2, 2)
        net = DtpNetwork(sim, topo, streams)
        net.start()
        sim.run_until(units.MS)
        worst = 0
        t = sim.now
        for _ in range(100):
            t += 20 * units.US
            sim.run_until(t)
            for edge in topo.edges:
                worst = max(worst, abs(net.pair_offset(edge.a, edge.b, t)))
        assert worst <= 4


class TestNetworkDynamics:
    def test_staggered_startup_converges(self, sim, streams):
        net = DtpNetwork(sim, star(4), streams)
        net.start(stagger_fs=200 * units.US)
        sim.run_until(2 * units.MS)
        assert net.all_synchronized()
        assert worst_offset_over(net, sim, 2 * units.MS, 4 * units.MS) <= 8

    def test_partition_and_heal(self, sim, streams):
        net = DtpNetwork(
            sim, chain(3), streams,
            skews={
                "n0": ConstantSkew(100.0),
                "n1": ConstantSkew(100.0),
                "n2": ConstantSkew(-100.0),
            },
        )
        net.start()
        Partition("n1", "n2", down_at_fs=2 * units.MS, up_at_fs=6 * units.MS).arm(
            FaultContext(network=net, streams=net.streams)
        )
        # While partitioned, n2 (slow side) drifts behind.
        sim.run_until(6 * units.MS)
        drifted = abs(net.pair_offset("n1", "n2"))
        assert drifted > 4  # 4 ms at 200 ppm gap ~ 125 ticks
        # After healing, BEACON_JOIN pulls the slow side forward again.
        sim.run_until(8 * units.MS)
        assert worst_offset_over(net, sim, 8 * units.MS, 9 * units.MS) <= 8

    @pytest.mark.parametrize(
        "downs", [0, 2], ids=["up-without-down", "two-downs"]
    )
    def test_the_first_up_link_raises_the_link(self, sim, streams, downs):
        # An up_link raises the link whatever came before it: ports that
        # went down without a down_link (a NodeCrash restart raises links
        # it never took down itself), or two faults whose downs overlap.
        net = DtpNetwork(sim, chain(3), streams)
        net.start()
        sim.run_until(200 * units.US)
        ports = (net.ports[("n0", "n1")], net.ports[("n1", "n0")])
        if downs:
            for _ in range(downs):
                net.down_link("n0", "n1")
        else:
            for port in ports:
                port.link_down()
        assert all(port.state is PortState.DOWN for port in ports)
        net.up_link("n0", "n1")
        assert all(port.state is not PortState.DOWN for port in ports)
        sim.run_until(400 * units.US)
        assert all(port.synchronized for port in ports)

    def test_late_joiner_with_zero_counter(self, sim, streams):
        net = DtpNetwork(sim, chain(3), streams)
        net.ports[("n0", "n1")].link_up()
        net.ports[("n1", "n0")].link_up()
        sim.run_until(2 * units.MS)
        # n2 powers on now; its counter is far behind the running network.
        joiner = net.devices["n2"]
        joiner.gc.set_counter(sim.now, 0)
        net.up_link("n1", "n2")
        sim.run_until(4 * units.MS)
        assert abs(net.pair_offset("n1", "n2")) <= 4

    def test_global_counter_monotonic_through_dynamics(self, sim, streams):
        net = DtpNetwork(sim, chain(3), streams)
        net.start()
        Partition("n0", "n1", down_at_fs=units.MS, up_at_fs=2 * units.MS).arm(
            FaultContext(network=net, streams=net.streams)
        )
        previous = -1
        t = 0
        while t < 4 * units.MS:
            t += 50 * units.US
            sim.run_until(t)
            current = net.counter_of("n0", t)
            assert current > previous
            previous = current


class TestBitErrors:
    def test_sync_survives_elevated_ber(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams, ber=1e-6)
        net.start()
        assert worst_offset_over(net, sim, units.MS, 5 * units.MS) <= 8

    def test_corrupted_messages_counted(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams, ber=1e-4)
        net.start()
        sim.run_until(5 * units.MS)
        total_rejected = sum(
            p.stats.rejected_out_of_range
            + p.stats._rejected["undecodable"].value
            + p.stats._lost_on_wire.value
            for p in net.ports.values()
        )
        assert total_rejected > 0


class TestMeasurementChannel:
    def test_logged_offsets_match_bound(self, sim, streams):
        net = DtpNetwork(sim, chain(2), streams)
        net.start()
        net.attach_logger("n0", "n1")
        sim.run_until(units.MS)
        for _ in range(50):
            net.send_log("n0", "n1")
            sim.run_until(sim.now + 20 * units.US)
        samples = net.logged_for("n0", "n1")
        assert len(samples) == 50
        assert all(-4 <= s.offset_ticks <= 4 for s in samples)


class TestPortConfig:
    def test_every_port_gets_its_own_copy_of_the_whole_config(self, sim, streams):
        # Field by field, so a field added to DtpPortConfig reaches the ports.
        from repro.dtp.port import DtpPortConfig

        config = DtpPortConfig(
            alpha=5, beacon_interval_ticks=1200, msb_interval_beacons=7,
            reject_threshold_ticks=6, max_jumps_per_window=3,
        )
        net = DtpNetwork(sim, chain(3), streams, config=config)
        configs = [port.config for port in net.ports.values()]
        assert len(configs) == 4
        for port_config in configs:
            assert port_config == config and port_config is not config
            assert port_config.latency is config.latency  # shared, as before
        assert len({id(port_config) for port_config in configs}) == 4
        configs[0].reject_threshold_ticks = 99  # a port's copy is its own
        assert config.reject_threshold_ticks == configs[1].reject_threshold_ticks == 6
