"""The checker's saving is structural: what a tick enumerates and rebuilds.

Spies on the enumeration path (``_walk``), the all-pairs BFS and the pair
build of a fat-tree k=4 run (36 nodes, 630 checkable pairs).
"""

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.faultlab import INVARIANT_PAIR_BOUND, InvariantChecker
from repro.network.topology import fat_tree
from repro.sim import units

PAIRS = 36 * 35 // 2


class Spy:
    """Counts calls of the checker's expensive parts, per instance."""

    def __init__(self, checker):
        self.walked = []  # (bound, pairs) per non-empty _walk call
        self.counters = None
        self.bfs = self.builds = 0
        for name in ("_walk", "_check_pair_bounds", "_all_distances", "_build_pairs"):
            setattr(checker, name, self._wrap(name, getattr(checker, name)))

    def _wrap(self, name, inner):
        def call(*args):
            if name == "_walk" and args[1]:
                self.walked.append((args[1][0][2], len(args[1])))
            elif name == "_check_pair_bounds":
                self.counters = args[1]
            elif name == "_all_distances":
                self.bfs += 1
            elif name == "_build_pairs":
                self.builds += 1
            return inner(*args)

        return call


@pytest.fixture
def fabric(sim, streams):
    net = DtpNetwork(
        sim, fat_tree(4, 2), streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    checker = InvariantChecker(net)
    spy = Spy(checker)
    net.start()
    sim.run_until(100 * units.US)  # synchronized and past grace
    assert checker.pairs_checked > 0 and checker.total_violations == 0
    return net, checker, spy


def test_settled_clean_ticks_enumerate_no_pair(sim, fabric):
    _net, checker, spy = fabric
    checks, pairs = checker.checks_run, checker.pairs_checked
    spy.walked.clear()
    sim.run_until(300 * units.US)
    ticks = checker.checks_run - checks
    assert ticks >= 20
    assert checker.pairs_checked - pairs == ticks * PAIRS  # all still counted
    assert checker.total_violations == 0
    assert spy.walked == []


def test_excursion_enumerates_only_buckets_the_spread_exceeds(sim, fabric):
    net, checker, spy = fabric
    host = next(name for name in net.devices if name.startswith("h"))
    tick_fs = (sim.now // checker.interval_fs + 1) * checker.interval_fs
    sim.run_until(tick_fs - units.NS)
    device = net.devices[host]
    device.gc.set_counter(sim.now, device.global_counter(sim.now) + 6)
    spy.walked.clear()
    pairs = checker.pairs_checked
    sim.run_until(tick_fs)
    assert checker.pairs_checked - pairs == PAIRS
    spread = max(spy.counters.values()) - min(spy.counters.values())
    bounds = {bound: len(bucket) for _c, _h, bound, bucket in checker._cache_buckets}
    assert 4 < spread < max(bounds)  # some buckets walked, some cleared
    assert sorted(spy.walked) == sorted(
        (bound, size) for bound, size in bounds.items() if bound < spread
    )
    assert checker.counts[INVARIANT_PAIR_BOUND] >= 1
    assert all(host in v.subject.split("-") for v in checker.violations)


def test_link_flap_costs_one_bfs_and_one_pair_build_per_change(sim, fabric):
    net, checker, spy = fabric
    host = next(name for name in net.devices if name.startswith("h"))
    (switch,) = [
        e.b if e.a == host else e.a
        for e in net.topology.edges
        if host in (e.a, e.b)
    ]
    bfs, builds = spy.bfs, spy.builds
    net.down_link(host, switch)
    sim.run_until(sim.now + 50 * units.US)
    assert (spy.bfs - bfs, spy.builds - builds) == (1, 1)
    assert len(checker.checkable_pairs()) == PAIRS - 35
    net.up_link(host, switch)
    sim.run_until(sim.now + 200 * units.US)
    assert (spy.bfs - bfs, spy.builds - builds) == (2, 2)
    assert len(checker.checkable_pairs()) == PAIRS


def test_healing_set_change_rebuilds_pairs_without_a_bfs(sim, fabric):
    net, checker, spy = fabric
    host = next(name for name in net.devices if name.startswith("h"))
    bfs, builds = spy.bfs, spy.builds
    checker.release([host], "drill")
    sim.run_until(sim.now + 50 * units.US)
    assert checker.recovery_fs["drill"]  # healed: the set changed twice
    assert (spy.bfs - bfs, spy.builds - builds) == (0, 2)
    assert len(checker.checkable_pairs()) == PAIRS
