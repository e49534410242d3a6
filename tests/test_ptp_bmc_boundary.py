"""Unit tests for PTP boundary clocks."""

from repro.clocks.clock import AdjustableFrequencyClock
from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.network.packet import PacketNetwork
from repro.network.topology import star
from repro.phy.specs import PHY_10G
from repro.ptp.boundary import BoundaryClock
from repro.ptp.master import PtpMaster
from repro.ptp.slave import PtpSlave
from repro.sim import units


def make_clock(ppm: float) -> AdjustableFrequencyClock:
    return AdjustableFrequencyClock(
        Oscillator(PHY_10G.period_fs, ConstantSkew(ppm))
    )


class TestBoundaryClock:
    def build_chain(self, sim, streams):
        network = PacketNetwork(sim, star(3))
        gm_clock = make_clock(0.0)
        bc_clock = make_clock(25.0)
        leaf_clock = make_clock(-20.0)
        master = PtpMaster(
            sim, network, "h0", gm_clock, slaves=["h1"],
            sync_interval_fs=units.SEC,
        )
        bc = BoundaryClock(
            sim, network, "h1", "h0", ["h2"], bc_clock,
            streams.stream("bc"), sync_interval_fs=units.SEC,
        )
        leaf = PtpSlave(
            sim, network, "h2", "h1", leaf_clock,
            streams.stream("leaf"), sync_interval_fs=units.SEC,
        )
        master.start()
        bc.start()
        return gm_clock, bc_clock, leaf_clock, bc, leaf

    def test_bc_tracks_grandmaster(self, sim, streams):
        gm, bc_clock, _, bc, _ = self.build_chain(sim, streams)
        sim.run_until(120 * units.SEC)
        assert abs(bc_clock.time_at(sim.now) - gm.time_at(sim.now)) < units.US

    def test_leaf_tracks_via_bc(self, sim, streams):
        gm, _, leaf_clock, _, leaf = self.build_chain(sim, streams)
        sim.run_until(120 * units.SEC)
        assert abs(leaf_clock.time_at(sim.now) - gm.time_at(sim.now)) < 2 * units.US

    def test_leaf_error_exceeds_bc_error(self, sim, streams):
        """The cascade: each level adds servo noise (Section 2.4.2)."""
        gm, bc_clock, leaf_clock, _, _ = self.build_chain(sim, streams)
        worst_bc = 0.0
        worst_leaf = 0.0
        for second in range(1, 181):
            sim.run_until(second * units.SEC)
            if second > 90:
                worst_bc = max(worst_bc, abs(bc_clock.time_at(sim.now) - gm.time_at(sim.now)))
                worst_leaf = max(worst_leaf, abs(leaf_clock.time_at(sim.now) - gm.time_at(sim.now)))
        assert worst_leaf > worst_bc

    def test_stop_disables_both_roles(self, sim, streams):
        _, _, _, bc, _ = self.build_chain(sim, streams)
        sim.run_until(10 * units.SEC)
        bc.stop()
        count = bc.master.syncs_sent
        sim.run_until(30 * units.SEC)
        assert bc.master.syncs_sent <= count + 1
        assert not bc.slave.enabled
