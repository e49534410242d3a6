"""The runtime invariant checker: clean baselines, flagged faults, API."""

import pytest

from repro.dtp.network import DtpNetwork
from repro.faultlab import (
    INVARIANT_MONOTONIC,
    INVARIANT_PAIR_BOUND,
    FaultContext,
    InvariantChecker,
    Partition,
    TwoFacedNode,
)
from repro.network.topology import chain
from repro.sim import units


def _net(sim, streams, hosts=3):
    return DtpNetwork(sim, chain(hosts), streams)


def _ctx(net, checker):
    return FaultContext(network=net, streams=net.streams, checker=checker)


def test_fault_free_baseline_is_clean(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    net.start()
    sim.run_until(units.MS)
    assert checker.checks_run > 500
    assert checker.pairs_checked > 0
    assert checker.total_violations == 0
    assert checker.counts == {}


def test_two_faced_node_is_flagged(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    TwoFacedNode("n0", "n1", lie_ticks=7, at_fs=200 * units.US).arm(
        _ctx(net, checker)
    )
    net.start()
    sim.run_until(1500 * units.US)
    assert checker.counts.get(INVARIANT_PAIR_BOUND, 0) > 0
    assert any(
        v.invariant == INVARIANT_PAIR_BOUND for v in checker.violations
    )


def test_counter_rollback_trips_monotonicity(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    net.start()

    def rollback():
        net.devices["n1"].gc.set_counter(sim.now, 100)

    sim.schedule_at(600 * units.US, rollback)
    sim.run_until(700 * units.US)
    assert checker.counts.get(INVARIANT_MONOTONIC, 0) >= 1


def test_notified_reset_is_not_a_violation(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    net.start()

    def legitimate_reset():
        checker.quarantine(["n1"], "maintenance")
        net.devices["n1"].gc.set_counter(sim.now, 100)
        checker.notify_counter_reset("n1")

    sim.schedule_at(600 * units.US, legitimate_reset)
    sim.run_until(700 * units.US)
    assert checker.counts.get(INVARIANT_MONOTONIC, 0) == 0
    assert checker.total_violations == 0


def test_unknown_nodes_are_rejected(sim, streams):
    checker = InvariantChecker(_net(sim, streams))
    with pytest.raises(KeyError):
        checker.quarantine(["nope"], "x")
    with pytest.raises(KeyError):
        checker.release(["nope"], "x")
    with pytest.raises(KeyError):
        checker.notify_counter_reset("nope")


def test_grace_window_defers_fresh_pairs(sim, streams):
    net = _net(sim, streams, hosts=2)
    checker = InvariantChecker(net)
    assert checker.worst_checkable_offset() is None  # nothing synced yet
    net.start()
    sim.run_until(20 * units.US)  # synced, but younger than grace_fs
    assert checker.checkable_pairs() == []
    ungraced = checker.checkable_pairs(enforce_grace=False)
    assert [(a, b) for a, b, _ in ungraced] == [("n0", "n1")]
    sim.run_until(200 * units.US)
    assert len(checker.checkable_pairs()) == 1


def test_pair_bound_scales_with_hops(sim, streams):
    net = _net(sim, streams, hosts=4)
    checker = InvariantChecker(net)
    net.start()
    sim.run_until(200 * units.US)
    bounds = {
        (a, b): bound for a, b, bound in checker.checkable_pairs()
    }
    increment = net.devices["n0"].counter_increment
    assert bounds[("n0", "n1")] == 4 * increment
    assert bounds[("n0", "n3")] == 12 * increment  # 4T * 3 hops


def test_partition_heal_records_recovery(sim, streams):
    net = _net(sim, streams, hosts=4)
    checker = InvariantChecker(net)
    Partition(
        "n1", "n2", down_at_fs=300 * units.US, up_at_fs=700 * units.US
    ).arm(_ctx(net, checker))
    net.start()
    sim.run_until(2 * units.MS)
    assert checker.total_violations == 0
    assert "partition" in checker.recovery_fs
    assert len(checker.recovery_fs["partition"]) == 2  # both endpoints
    assert not checker._healing
    assert len(checker.reconnect_recoveries) >= 1


def test_interval_validation(sim, streams):
    net = _net(sim, streams)
    with pytest.raises(ValueError, match="interval_fs"):
        InvariantChecker(net, interval_fs=0)


def test_stop_halts_the_checker(sim, streams):
    net = _net(sim, streams)
    checker = InvariantChecker(net)
    net.start()
    sim.run_until(100 * units.US)
    seen = checker.checks_run
    checker.stop()
    sim.run_until(500 * units.US)
    assert checker.checks_run == seen
