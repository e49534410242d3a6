"""The checker's saving is structural: what a tick builds, and when.

A new epoch (an edge's synchronized flag moved, or a quarantine, release or
healing completion) finds the components, their pair *counts* and their
hop-1 links; that counter is the one signature of the per-epoch state.  A
tick whose component spread S proves every pair in bound walks nothing; one
that does not walks the pairs fewer than S / 4 hops apart (increment 1) --
the links at hop 1, a BFS of that depth built on the tick and dropped
deeper.  Pinned here by what the checker calls (``_walk``, the truncated
BFS ``_distances_from``, ``_find_components``) on a fat-tree k=4 run (36
nodes, 48 links, 94 two-hop pairs, 630 checkable pairs) and on the
benchmark's 336-node fabric.
"""

from collections import Counter

import pytest

from repro.clocks.clock import TickClock
from repro.clocks.oscillator import ConstantSkew
from repro.dtp.device import DtpDevice
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.dtp.spanning_tree import FollowerClock, configure_spanning_tree
from repro.faultlab import INVARIANT_PAIR_BOUND, InvariantChecker
from repro.faultlab.campaign import assemble, prepare, run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.network.topology import chain, fat_tree
from repro.shard import run_sharded_scenario
from repro.sim import units
from tests.test_shard import BENCH_FABRIC

PAIRS = 36 * 35 // 2
LINKS = 48
TWO_HOP = 94


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


def walks(checker):
    """The live list of ``[(bound, pairs), ...]`` per non-empty ``_walk``."""
    walked = []
    inner = checker._walk

    def walk(counters, pairs, found):
        if pairs:
            walked.append(sorted(Counter(bound for _a, _b, bound in pairs).items()))
        return inner(counters, pairs, found)

    checker._walk = walk
    return walked


def bfs_depths(checker):
    """The live list of the depth each ``_distances_from`` call was given."""
    depths = []
    inner = checker._distances_from

    def distances_from(start, adjacency, limit):
        depths.append(limit)
        return inner(start, adjacency, limit)

    checker._distances_from = distances_from
    return depths


@pytest.fixture
def fabric(sim, streams):
    net = DtpNetwork(
        sim, fat_tree(4, 2), streams,
        config=DtpPortConfig(beacon_interval_ticks=1200),
    )
    checker = InvariantChecker(net)
    net.start()
    sim.run_until(100 * units.US)  # synchronized and past grace
    assert checker.pairs_checked > 0 and checker.total_violations == 0
    return net, checker, walks(checker)


def _host_uplink(net):
    host = next(name for name in net.devices if name.startswith("h"))
    (switch,) = [
        e.b if e.a == host else e.a
        for e in net.topology.edges
        if host in (e.a, e.b)
    ]
    return host, switch


def test_settled_clean_ticks_enumerate_no_pair(sim, fabric):
    _net, checker, walked = fabric
    depths = bfs_depths(checker)
    checks, pairs = checker.checks_run, checker.pairs_checked
    sim.run_until(300 * units.US)
    ticks = checker.checks_run - checks
    assert ticks >= 20
    assert checker.pairs_checked - pairs == ticks * PAIRS  # all still counted
    assert checker.total_violations == 0
    assert walked == [] and depths == []
    # Every one of the 630 connected at one tick and was logged within bound
    # there, by the component's spread alone.
    assert checker.reconnect_recoveries.rows == [(7_680_000_000, 0, PAIRS)]
    assert len(checker.reconnect_recoveries) == PAIRS
    assert checker._reach == {}


def _excursion(sim, net, checker, ticks):
    """Move one host ``ticks`` ahead just before the next check tick and run
    to it; returns that tick's counters and the live list of BFS depths."""
    host, _switch = _host_uplink(net)
    tick_fs = (sim.now // checker.interval_fs + 1) * checker.interval_fs
    sim.run_until(tick_fs - units.NS)
    device = net.devices[host]
    device.gc.set_counter(sim.now, device.global_counter(sim.now) + ticks)
    counters = {}
    inner = checker._check_pair_bounds
    checker._check_pair_bounds = lambda now, gc: (counters.update(gc), inner(now, gc))
    depths = bfs_depths(checker)
    pairs = checker.pairs_checked
    sim.run_until(tick_fs)
    assert checker.pairs_checked - pairs == PAIRS
    assert checker.counts[INVARIANT_PAIR_BOUND] >= 1
    assert all(host in v.subject.split("-") for v in checker.violations)
    return counters, depths


def test_six_tick_excursion_walks_its_components_hop_1_links(sim, fabric):
    net, checker, walked = fabric
    counters, depths = _excursion(sim, net, checker, 6)
    spread = max(counters.values()) - min(counters.values())
    assert 4 < spread <= 8  # past the hop-1 bound, within the hop-2 bound
    (component,) = checker._components
    assert len(component.links) == LINKS
    assert walked == [[(4, LINKS)]] and depths == []


def test_ten_tick_excursion_walks_two_hops_built_that_tick(sim, fabric):
    net, checker, walked = fabric
    counters, depths = _excursion(sim, net, checker, 10)
    spread = max(counters.values()) - min(counters.values())
    assert 8 < spread <= 12  # past the hop-2 bound, within the hop-3 bound
    # One BFS of depth 2 from each of the 36 members, and nothing deeper.
    assert walked == [[(4, LINKS), (8, TWO_HOP)]] and depths == [2] * 36
    # Nothing of it stays: the next tick the spread leaves unproven builds
    # its own.
    (component,) = checker._components
    assert len(component.links) == LINKS and checker._reach == {}
    sim.run_until(sim.now + checker.interval_fs)
    assert walked[1] == walked[0] and depths == [2] * 72


def test_link_flap_costs_one_component_traversal_and_no_all_pairs_bfs(sim, fabric):
    net, checker, _walked = fabric
    host, switch = _host_uplink(net)
    calls = count_calls(checker, "_find_components")
    depths = bfs_depths(checker)
    ticks, pairs = checker.checks_run, checker.pairs_checked
    net.down_link(host, switch)
    sim.run_until(sim.now + 50 * units.US)
    # The links are found again, one hop from each checkable node.
    assert calls == {"_find_components": 1} and depths == [1] * 35
    went = checker.checks_run - ticks
    assert checker.pairs_checked - pairs == went * (PAIRS - 35)
    ticks, pairs = checker.checks_run, checker.pairs_checked
    net.up_link(host, switch)
    sim.run_until(sim.now + 200 * units.US)
    # The host's 35 pairs sat out their grace window beside 595 that were
    # past theirs: still no pair walked, and one more traversal.
    assert calls == {"_find_components": 2} and depths == [1] * (35 + 36)
    assert checker._reach == {}
    rows = checker.reconnect_recoveries.rows
    assert len(rows) == 2 and rows[1][1:] == (0, 35)
    assert len(checker.reconnect_recoveries) == PAIRS + 35
    assert len(checker._merges) == 2
    went = checker.checks_run - ticks
    assert 0 < checker.pairs_checked - pairs - went * (PAIRS - 35) < went * 35
    # Asking for the pairs is what builds them (and changes no count).
    pairs = checker.pairs_checked
    assert len(checker.checkable_pairs()) == PAIRS
    assert checker.pairs_checked == pairs


def test_benchmark_fabric_files_its_links_and_counts_the_rest(sim):
    """The benchmark's 336-node fat-tree: 56,280 checkable pairs counted
    every tick past grace; the 512 synchronized links are the only pairs
    ever built (one hop from each node, once an epoch), and the only ones
    walked."""
    prepared = prepare(dict(BENCH_FABRIC))
    _streams, net = assemble(prepared, 1, sim, None, "scalar")
    checker = InvariantChecker(net)
    walked = walks(checker)
    depths = bfs_depths(checker)
    net.start()
    per_tick = []
    for index in range(27):  # one check every 7.68 us, the first at t = 0
        before = checker.pairs_checked
        sim.run_until(index * checker.interval_fs)
        per_tick.append(checker.pairs_checked - before)
        if index == 1:  # every link synchronizes together, before this tick
            assert len(checker.reconnect_recoveries) == 56_280
    sim.run_until(prepared.duration_fs)
    assert (checker.checks_run, checker.pairs_checked) == (27, 1_069_320)
    assert sorted(set(per_tick)) == [0, 56_280]
    (component,) = checker._components
    assert len(component.links) == 512 and set(depths) == {1}
    # Of the 19 ticks past grace, the spread proves all in bound on one;
    # the other 18 walk the links.
    assert per_tick.count(56_280) == 19
    assert walked == [[(4, 512)]] * 18
    assert len(checker.reconnect_recoveries) == 56_280


# ----------------------------------------------------------------------
# A settled tick pays for reading its nodes, whatever the topology's size
# ----------------------------------------------------------------------
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
    calls = count_calls(checker, "_find_components", "_check_monotonic", "_counters")
    checks, epoch = checker.checks_run, checker._epoch
    sim.run_until(sim.now + 30 * checker.interval_fs)
    ticks = checker.checks_run - checks
    assert ticks >= 20 and checker.total_violations == 0
    assert calls == {"_find_components": 0, "_check_monotonic": 0, "_counters": ticks}
    assert checker._epoch == epoch


class _AheadDevice(DtpDevice):
    """A device class whose ``global_counter`` is not ``gc``'s reading."""

    def global_counter(self, t_fs: int) -> int:
        return super().global_counter(t_fs) + 7


def test_counter_read_is_each_devices_global_counter(sim, streams):
    # n0 keeps its plain gc (the tree's root), n1 and n2 follow their parents
    # through a FollowerClock swapped in *after* the checker was built, and
    # the classes of n0 (a plain gc) and n3 (a follower) override
    # global_counter: the tick's direct gc read must still be exactly what
    # every device reports.
    net = DtpNetwork(sim, chain(4), streams, skews={"n2": ConstantSkew(60.0)})
    for name in ("n0", "n3"):
        net.devices[name].__class__ = _AheadDevice
    checker = InvariantChecker(net)
    configure_spanning_tree(net, master="n0")
    assert isinstance(net.devices["n1"].gc, FollowerClock)
    net.start()
    for stop_us in (0, 30, 100, 250, 400, 600):
        sim.run_until(stop_us * units.US)
        now = sim.now
        expected = {name: d.global_counter(now) for name, d in net.devices.items()}
        assert checker._counters(now) == expected
        for name in ("n0", "n3"):
            assert expected[name] == net.devices[name].gc.counter_at(now) + 7
    assert type(net.devices["n0"].gc) is TickClock
    assert net.devices["n2"].gc.stalls > 0  # the fast follower did hold


def test_a_holding_follower_is_read_through_its_method(sim, streams):
    # Right after a stall the follower's free-running count sits below the
    # value it holds, so only counter_at reads it right.
    net = DtpNetwork(sim, chain(3), streams, skews={"n2": ConstantSkew(90.0)})
    checker = InvariantChecker(net)
    configure_spanning_tree(net, master="n0")
    follower = net.devices["n2"].gc
    track, held = follower.track, []

    def spy(t_fs, candidate):
        action = track(t_fs, candidate)
        if action == "stall":
            free = TickClock.counter_at(follower, t_fs)
            read = checker._counters(t_fs)
            held.append(read["n2"] > free)
            assert read == {n: d.global_counter(t_fs) for n, d in net.devices.items()}
        return action

    follower.track = spy
    net.start()
    sim.run_until(300 * units.US)
    assert held and all(held)


def _method_counters(self, now):
    """The read every device (and every shim) answers: ``global_counter``."""
    return {name: d.global_counter(now) for name, d in self.network.devices.items()}


def test_shard_replay_shims_equal_the_method_path(monkeypatch):
    # The replay's shims have no gc, a ``now`` without ``_now`` and a boxed
    # port state: the whole result -- ``checks_run``, ``pairs_checked``,
    # violations, ``max_offset_excursion`` -- must be the one a checker gives
    # that reads every counter through ``global_counter``.
    (spec,) = builtin_specs(["link-flap"], quick=True)

    def run():
        return run_sharded_scenario(spec, seed=1, shards=2, transport="inline")

    fast = run()
    with monkeypatch.context() as patched:
        patched.setattr(InvariantChecker, "_counters", _method_counters)
        assert run() == fast
    assert fast == run_scenario(spec, seed=1)


@pytest.mark.parametrize("topology", ["fabric", "chain3"])
def test_sampler_instant_costs_one_poll_and_one_counter_read(sim, request, topology):
    _net, checker = request.getfixturevalue(topology)[:2]
    calls = count_calls(checker, "_epoch_state", "_counters", "_find_components")
    worst, links = checker.sample(True)
    assert calls == {"_epoch_state": 1, "_counters": 1, "_find_components": 0}
    assert worst is not None and links
    assert checker.sample(False) == (worst, None)
    assert calls == {"_epoch_state": 2, "_counters": 2, "_find_components": 0}


def test_link_flap_costs_one_signature_per_poll_a_flag_moved_on(sim, fabric):
    net, checker, _walked = fabric
    host, switch = _host_uplink(net)
    calls = count_calls(checker, "_find_components")
    moved_on = []  # per poll: did it find an edge's synchronized flag changed?
    poll = checker._epoch_state

    def epoch_state():
        before = list(checker._edge_synced)
        poll()
        moved_on.append(before != checker._edge_synced)

    checker._epoch_state = epoch_state
    epoch = checker._epoch
    net.down_link(host, switch)
    sim.run_until(sim.now + 50 * units.US)
    assert (calls["_find_components"], checker._epoch - epoch, sum(moved_on)) == (1, 1, 1)
    net.up_link(host, switch)
    sim.run_until(sim.now + 200 * units.US)
    assert (calls["_find_components"], checker._epoch - epoch, sum(moved_on)) == (2, 2, 2)
    assert len(moved_on) >= 20


def test_each_checker_call_and_a_healing_completion_cost_one_signature(sim, fabric):
    net, checker, _walked = fabric
    host, _switch = _host_uplink(net)
    calls = count_calls(checker, "_find_components")
    asked = []
    distances = checker._distances
    checker._distances = lambda node: (asked.append(node), distances(node))[1]

    def cost(act):
        before = calls["_find_components"]
        act()
        sim.run_until(sim.now + 5 * checker.interval_fs)
        return calls["_find_components"] - before

    assert cost(lambda: checker.quarantine([host], "drill")) == 1
    assert len(checker.checkable_pairs(False)) == PAIRS - 35
    # The release, then the tick after the one that saw the node back in bound.
    assert cost(lambda: checker.release([host], "drill")) == 2
    assert checker.recovery_fs["drill"] and not checker._healing
    assert len(checker.checkable_pairs(False)) == PAIRS
    assert cost(lambda: None) == 0
    # A node healing in place: the same two epochs, and its own full BFS is
    # the only distance anything asked for.
    asked.clear()
    assert cost(lambda: checker.release([host], "in-place")) == 2
    assert checker.recovery_fs["in-place"] and set(asked) == {host}
    assert len(checker.checkable_pairs()) == PAIRS
