"""The checker's saving is structural: what a tick enumerates and rebuilds.

Spies on the enumeration path (``_walk``), the all-pairs BFS and the pair
build of a fat-tree k=4 run (36 nodes, 630 checkable pairs).
"""

import pytest

from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.faultlab import INVARIANT_PAIR_BOUND, InvariantChecker
from repro.network.topology import chain, fat_tree
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


# ----------------------------------------------------------------------
# A settled tick pays for reading its nodes, whatever the topology's size
# ----------------------------------------------------------------------
def count_calls(checker, *names):
    """Wrap ``checker``'s methods by name; returns the live ``{name: calls}``."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, inner):
        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in names:
        setattr(checker, name, wrap(name, getattr(checker, name)))
    return calls


@pytest.fixture
def chain3(sim, streams):
    net = DtpNetwork(sim, chain(3), streams)
    checker = InvariantChecker(net)
    net.start()
    sim.run_until(100 * units.US)
    assert checker.pairs_checked > 0 and checker.total_violations == 0
    return net, checker


@pytest.mark.parametrize("topology", ["fabric", "chain3"])
def test_settled_ticks_skip_the_signature_and_the_recording_checks(
    sim, request, topology
):
    _net, checker = request.getfixturevalue(topology)[:2]
    calls = count_calls(
        checker, "_cache_key", "_check_monotonic", "_check_wrap_codec", "_counters"
    )
    checks = checker.checks_run
    sim.run_until(sim.now + 30 * checker.interval_fs)
    ticks = checker.checks_run - checks
    assert ticks >= 20 and checker.total_violations == 0
    assert calls == {
        "_cache_key": 0, "_check_monotonic": 0, "_check_wrap_codec": 0,
        "_counters": ticks,
    }


@pytest.mark.parametrize("topology", ["fabric", "chain3"])
def test_sampler_instant_costs_one_poll_and_one_counter_read(sim, request, topology):
    _net, checker = request.getfixturevalue(topology)[:2]
    calls = count_calls(checker, "_epoch_state", "_counters", "_cache_key")
    worst, links = checker.sample(True)
    assert calls == {"_epoch_state": 1, "_counters": 1, "_cache_key": 0}
    assert worst is not None and links
    assert checker.sample(False) == (worst, None)
    assert calls == {"_epoch_state": 2, "_counters": 2, "_cache_key": 0}


def _host_uplink(net):
    host = next(name for name in net.devices if name.startswith("h"))
    (switch,) = [
        e.b if e.a == host else e.a
        for e in net.topology.edges
        if host in (e.a, e.b)
    ]
    return host, switch


def test_link_flap_costs_one_signature_per_poll_a_flag_moved_on(sim, fabric):
    net, checker, spy = fabric
    host, switch = _host_uplink(net)
    calls = count_calls(checker, "_cache_key")
    moved_on = []  # per poll: did it find an edge's synchronized flag changed?
    poll = checker._epoch_state

    def epoch_state():
        before = list(checker._edge_synced)
        distances = poll()
        moved_on.append(before != checker._edge_synced)
        return distances

    checker._epoch_state = epoch_state
    bfs, builds = spy.bfs, spy.builds
    net.down_link(host, switch)
    sim.run_until(sim.now + 50 * units.US)
    assert (calls["_cache_key"], sum(moved_on)) == (1, 1)
    net.up_link(host, switch)
    sim.run_until(sim.now + 200 * units.US)
    assert (calls["_cache_key"], sum(moved_on)) == (2, 2)
    assert len(moved_on) >= 20
    assert (spy.bfs - bfs, spy.builds - builds) == (2, 2)


def test_each_checker_call_and_a_healing_completion_cost_one_signature(sim, fabric):
    net, checker, _spy = fabric
    host, switch = _host_uplink(net)
    calls = count_calls(checker, "_cache_key")

    def cost(act):
        before = calls["_cache_key"]
        act()
        sim.run_until(sim.now + 5 * checker.interval_fs)
        return calls["_cache_key"] - before

    assert cost(lambda: checker.quarantine([host], "drill")) == 1
    assert len(checker.checkable_pairs(False)) == PAIRS - 35
    # The release, then the tick after the one that saw the node back in bound.
    assert cost(lambda: checker.release([host], "drill")) == 2
    assert checker.recovery_fs["drill"] and not checker.healing_nodes
    assert len(checker.checkable_pairs(False)) == PAIRS
    assert cost(lambda: checker.quarantine_edge(host, switch, "rejoin")) == 1
    assert len(checker.checkable_pairs(False)) == PAIRS - 35
    assert cost(lambda: checker.release_edge(host, switch, "rejoin")) == 1
    assert len(checker.checkable_pairs(False)) == PAIRS
    assert cost(lambda: None) == 0
