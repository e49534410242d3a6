"""InvariantChecker against a brute-force oracle that shares none of its caches.

``tests/checker_reference.py`` re-derives everything on every tick — a fresh
BFS per node, a full i<j pair walk, no epochs, no spread screen — so any
shortcut the checker takes (a component's spread proving the pairs it can,
only the pairs it leaves unproven walked, pair counts without pairs,
connect times kept as merge levels) has to reproduce it exactly, tick by
tick.  No benchmark tick leaves a pair two hops apart or more unproven, so
the deep schedules and the three-hop case below are what cover that path.

Every schedule drives two checkers over the one network: one is asked for
``checkable_pairs()`` (the full per-pair build) after every tick, the other
never is, so whatever it answers comes from the per-tick structures.
"""

from types import SimpleNamespace

import pytest
from hypothesis import core, given, seed, settings
from hypothesis import strategies as st

from repro.faultlab.invariants import DEFAULT_GRACE_FS, InvariantChecker
from repro.sim import units
from tests.checker_reference import Reference

INTERVAL_FS = 20 * units.US

#: Tier-1 runs one pinned example stream; ``--hypothesis-seed`` (CI's second
#: pass) picks another, which ``@seed`` would otherwise override.
pinned = seed(15) if core.global_force_seed is None else (lambda test: test)


class _Sim:
    now = 0

    def schedule(self, *_args):
        return None

    schedule_at = cancel = schedule


class _Device:
    def __init__(self, increment):
        self.counter_increment = increment
        self.value = 0

    def global_counter(self, _now):
        return self.value


class _Net:
    """The slice of DtpNetwork the checker reads, with settable state."""

    telemetry = None

    def __init__(self, increments, edges):
        self.sim = _Sim()
        self.devices = {f"n{i}": _Device(inc) for i, inc in enumerate(increments)}
        self.topology = SimpleNamespace(
            edges=[SimpleNamespace(a=f"n{a}", b=f"n{b}") for a, b in edges]
        )
        self.ports = {}
        for edge in self.topology.edges:
            for key in ((edge.a, edge.b), (edge.b, edge.a)):
                self.ports[key] = SimpleNamespace(
                    synchronized=False, state=SimpleNamespace(value="s")
                )

    def set_link(self, index, up):
        edge = self.topology.edges[index]
        self.ports[(edge.a, edge.b)].synchronized = up
        self.ports[(edge.b, edge.a)].synchronized = up

    def up_edges(self):
        return [
            (e.a, e.b)
            for e in self.topology.edges
            if self.ports[(e.a, e.b)].synchronized
        ]


def _tree_plus_chords(draw, n):
    """A spanning tree that tends to be deep (each node hangs off one of the
    two before it), so pairs 3 hops apart and more exist, plus a few chords."""
    tree = [(draw(st.integers(max(0, i - 2), i - 1)), i) for i in range(1, n)]
    far = [(a, b) for a in range(n) for b in range(a + 3, n)]
    chords = draw(st.lists(st.sampled_from(far), max_size=3, unique=True)) if far else []
    return tree + [c for c in chords if c not in tree]


@st.composite
def schedules(draw, deep=False):
    n = draw(st.integers(8, 24) if deep else st.integers(2, 7))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if deep:
        edges = _tree_plus_chords(draw, n)
    else:
        edges = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=10, unique=True))
    # An increment of 2^51 makes the hop-1 bound 2^53: two nodes 2^52 apart
    # are then in bound yet outside the wrap half-window.
    scale = draw(st.sampled_from([1, 1, 1, 1 << 51]))
    increments = [
        scale * inc
        for inc in draw(st.lists(st.sampled_from([1, 1, 2, 20]), min_size=n, max_size=n))
    ]
    # Two groups of nodes, each internally tight, possibly far apart: a
    # global-spread shortcut would be wrong.
    group = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    gap = draw(st.sampled_from([0, 0, 40, 10**6, 1 << 52]))
    base = draw(st.sampled_from([1000, (1 << 52) - 30, (1 << 53) - 30]))
    node = st.integers(0, n - 1)
    edge = st.integers(0, len(edges) - 1)
    link = st.tuples(st.just("link"), edge, st.booleans())
    op = st.one_of(
        link,
        link,
        st.tuples(st.just("quarantine"), node),
        st.tuples(st.just("release"), node, st.lists(node, max_size=2)),
        st.tuples(st.just("reset"), node),
    )
    # Mostly within the hop-1 bound of 4, so spreads prove ticks, with excursions.
    jitter = st.sampled_from([0, 1, 2, 3, 4, 4, 5, 7, 14])
    if deep:
        # Settled but for one node a tick, which steps past the bound of 1,
        # 2 or 3 hops or all of them: the spread leaves that deep unproven.
        calm = st.sampled_from([0, 0, 1, 1, 2, 3])
        jitter_rows = st.builds(
            lambda row, at, by: row[:at] + [by] + row[at + 1:],
            st.lists(calm, min_size=n, max_size=n), node,
            st.sampled_from([0, 0, 6, 10, 14, 30, 200]),
        )
    else:
        jitter_rows = st.lists(jitter, min_size=n, max_size=n)
    ticks = draw(st.lists(
        st.tuples(
            st.lists(op, max_size=1 if deep else 2), jitter_rows, st.booleans()
        ),
        min_size=6, max_size=16,
    ))
    # Two components join and, on the next tick or the one after -- inside
    # the join's grace window unless grace is 0 -- a link of the joined
    # component drops: merges and splits that share one window.
    for at, joining, dropping, gap in draw(st.lists(
        st.tuples(st.integers(0, len(ticks) - 3), edge, edge, st.integers(1, 2)),
        max_size=2,
    )):
        for index, change in ((at, ("link", joining, True)),
                              (at + gap, ("link", dropping, False))):
            ops, row, sample_first = ticks[index]
            ticks[index] = (ops + [change], row, sample_first)
    mostly = st.sampled_from([True, True, True, False])
    return {
        "edges": edges, "increments": increments, "group": group, "gap": gap,
        "base": base, "ticks": ticks,
        "links_up": draw(st.lists(mostly, min_size=len(edges), max_size=len(edges))),
        "grace": draw(st.sampled_from([0, INTERVAL_FS, DEFAULT_GRACE_FS])),
    }


def _apply(op, net, checkers, ref):
    names = list(net.devices)
    if op[0] == "link":
        net.set_link(op[1], op[2])
    elif op[0] == "quarantine":
        for checker in checkers:
            checker.quarantine([names[op[1]]], "fault")
        ref.quarantined.add(names[op[1]])
    elif op[0] == "release":
        wait_for = [names[i] for i in op[2]]
        for checker in checkers:
            checker.release([names[op[1]]], "fault", wait_for=wait_for)
        ref.quarantined.discard(names[op[1]])
        ref.healing[names[op[1]]] = ("fault", net.sim.now, frozenset(wait_for))
    else:
        for checker in checkers:
            checker.notify_counter_reset(names[op[1]])
        ref.last.pop(names[op[1]], None)


def _assert_same(checker, ref, net, gc, full_build):
    now, up = net.sim.now, net.up_edges()
    assert [
        (v.time_fs, v.invariant, v.subject, v.detail) for v in checker.violations
    ] == ref.violations
    assert checker.counts == ref.counts
    assert checker.pairs_checked == ref.pairs_checked
    assert checker.ticks_above_bound == ref.ticks_above
    assert checker.recovery_fs == ref.recovery
    assert len(checker.reconnect_recoveries) == ref.reconnects
    assert checker.worst_checkable_offset() == ref.worst(now, gc, up)
    _assert_same_sample(checker, ref, net, gc)
    for enforce in (True, False):
        if full_build:
            assert checker.checkable_pairs(enforce) == ref.pairs(now, up, enforce)
        assert _link_offsets(checker, enforce) == [
            (a, b, abs(gc[a] - gc[b]), bound)
            for a, b, bound in ref.pairs(now, up, enforce, hops_only=1)
        ]


def _link_offsets(checker, enforce_grace=True):
    """The adjacent-link offsets ``checker.sample(True)`` returns second,
    or the same links with the grace filter off."""
    checker._epoch_state()
    now = checker.network.sim.now
    state = checker._past_grace(now) if enforce_grace else True
    return checker._link_offsets(checker._counters(now), state)


def _assert_same_sample(checker, ref, net, gc):
    """One sampler instant == the two public reads == the reference's."""
    now, up = net.sim.now, net.up_edges()
    links = [
        (a, b, abs(gc[a] - gc[b]), bound)
        for a, b, bound in ref.pairs(now, up, hops_only=1)
    ]
    assert (
        checker.sample(True)
        == (checker.worst_checkable_offset(), _link_offsets(checker))
        == (ref.worst(now, gc, up), links)
    )
    assert checker.sample(False) == (ref.worst(now, gc, up), None)


def run_schedule(plan):
    net = _Net(plan["increments"], plan["edges"])
    for index, up in enumerate(plan["links_up"]):
        net.set_link(index, up)
    # The first is asked for the full per-pair build after every tick, the
    # second never: the build must not change any later answer, and nothing
    # the second answers may need it.
    checkers = [
        InvariantChecker(net, interval_fs=INTERVAL_FS, grace_fs=plan["grace"])
        for _ in range(2)
    ]
    ref = Reference(net, plan["grace"])
    names = list(net.devices)
    for t, (ops, jitter, sample_first) in enumerate(plan["ticks"]):
        net.sim.now = t * INTERVAL_FS
        for op in ops:
            _apply(op, net, checkers, ref)
        gc = {}
        for i, name in enumerate(names):
            gc[name] = plan["base"] + plan["group"][i] * plan["gap"] + 12 * t + jitter[i]
            net.devices[name].value = gc[name]
        if sample_first:
            # The sampler can fire before the tick that sweeps new pairs in.
            for checker in checkers:
                assert checker.worst_checkable_offset() == ref.worst(
                    net.sim.now, gc, net.up_edges()
                )
        ref.step(net.sim.now, gc, net.up_edges())
        for checker in checkers:
            checker._tick()
            _assert_same(checker, ref, net, gc, full_build=checker is checkers[0])
        # A link moves between the tick and the sampler at the same instant:
        # the sample must poll the ports itself, not trust the tick's epoch.
        # And back, sampled again, so that the next tick's poll finds no flag
        # moved and what its ops changed rests on the dirty bit alone.
        index = t % len(plan["edges"])
        flipped = net.topology.edges[index]
        was_up = (flipped.a, flipped.b) in net.up_edges()
        for up in (not was_up, was_up):
            net.set_link(index, up)
            for checker in checkers:
                _assert_same_sample(checker, ref, net, gc)
    return checkers[0]


@pinned
@settings(deadline=None)
@given(schedules())
def test_checker_matches_brute_force_reference(plan):
    run_schedule(plan)


@pinned
@settings(deadline=None)
@given(schedules(deep=True))
def test_checker_matches_brute_force_reference_on_deep_topologies(plan):
    run_schedule(plan)


def _plan(**overrides):
    plan = {
        "edges": [(0, 1), (1, 2), (3, 4)], "increments": [1] * 5,
        "group": [0, 0, 0, 1, 1], "gap": 10**6, "base": 1000,
        "links_up": [True, True, True], "grace": 0,
        "ticks": [([], [0, 1, 2, 0, 1], False)] * 4,
    }
    plan.update(overrides)
    return plan


def test_regressions_on_quarantined_and_checkable_nodes_in_one_tick():
    """The tick that leaves the fused pass records what the two recording
    checks always did, in node order: n1's regression is excused, n2's
    repeated counter is one (``<=``), and every baseline still moves."""
    checker = run_schedule(_plan(
        edges=[(0, 1), (1, 2)], increments=[1] * 3, group=[0] * 3, gap=0,
        links_up=[True, True],
        ticks=[
            ([], [0, 0, 0], False),
            ([("quarantine", 1)], [0, 0, 0], False),
            ([], [-14, -14, -12], False),
            ([], [0, 0, 0], False),
        ],
    ))
    recorded = [(v.invariant, v.subject, v.detail) for v in checker.violations]
    assert recorded == [
        ("gc-monotonic", "n0", {"previous": 1012, "current": 1010}),
        ("gc-monotonic", "n2", {"previous": 1012, "current": 1012}),
    ]
    assert checker.total_violations == len(recorded) == sum(checker.counts.values())
    assert checker._last_counter == {"n0": 1036, "n1": 1036, "n2": 1036}


def test_two_tight_components_far_apart_are_clean():
    """A global max-min spread would flag this; per-component must not."""
    plan = _plan()
    run_schedule(plan)
    net = _Net(plan["increments"], plan["edges"])
    for index in range(3):
        net.set_link(index, True)
    checker = InvariantChecker(net, interval_fs=INTERVAL_FS, grace_fs=0)
    for name, value in zip(net.devices, (1000, 1001, 1002, 10**6, 10**6 + 1)):
        net.devices[name].value = value
    checker._tick()
    assert checker.pairs_checked == 4  # 3 pairs in one component, 1 in the other
    assert checker.total_violations == 0
    assert checker.worst_checkable_offset() == 2


@pytest.mark.parametrize("mixed", [False, True])
def test_cross_node_wrap_branch_is_reached(mixed):
    """In bound (an increment of 2^51 makes the hop-1 bound 2^53) yet 2^52
    apart: the codec check must fire.  ``mixed`` gives one end increment 1:
    a pair's bound follows its larger increment, so it is still in bound."""
    increments = [1 if mixed else 1 << 51, 1 << 51]
    run_schedule(_plan(
        edges=[(0, 1)], increments=increments, group=[0, 1], gap=1 << 52,
        base=(1 << 52) - 30, links_up=[True], ticks=[([], [0, 1], False)] * 3,
    ))
    net = _Net(increments, [(0, 1)])
    net.set_link(0, True)
    checker = InvariantChecker(net, interval_fs=INTERVAL_FS, grace_fs=0)
    net.devices["n0"].value = 1 << 52
    checker._tick()
    assert checker.counts == {"wrap-codec": 1}



def test_a_spread_three_hops_deep_walks_three_hops():
    """Only n0-n3 is out of bound: 3 hops apart, bound 12, offset 13.  The
    chain's middle has increment 2, so every closer pair's bound is 8 per
    hop and holds.  The spread is 13 smallest increments, which leaves
    pairs of up to 3 hops unproven; a depth taken from the larger increment
    (13 / 2 ticks) would stop at hop 1 and miss the violation."""
    checker = run_schedule(_plan(
        edges=[(0, 1), (1, 2), (2, 3)], increments=[1, 2, 2, 1], group=[0] * 4,
        gap=0, links_up=[True] * 3, ticks=[([], [0, 6, 7, 13], False)] * 3,
    ))
    assert [(v.subject, v.detail) for v in checker.violations] == [
        ("n0-n3", {"offset": -13, "bound": 12})
    ] * 3


CALM = ([], [0, 0, 0], False)


@pytest.mark.parametrize(
    "overrides",
    [
        # n2 joins while the old pair n0-n1 is out of bound: the walk of the
        # hop-1 class must log the fresh pairs only.
        dict(links_up=[True, False],
             ticks=[CALM, ([("link", 1, True)], [14, 0, 0], False), CALM]),
        # Both ends of a fresh, out-of-bound pair are healing: one late pair.
        dict(links_up=[False, False],
             ticks=[([("release", 0, []), ("release", 1, [])], [0, 0, 0], False),
                    ([("link", 0, True)], [14, 0, 0], False), CALM]),
        # n0-n1 goes out of bound, flaps, and is back in bound inside its
        # new grace window while n1-n2 is past its own.
        dict(links_up=[True, True], grace=DEFAULT_GRACE_FS,
             ticks=[CALM] * 3 + [([], [14, 0, 0], False),
                                 ([("link", 0, False)], [0, 0, 0], False),
                                 ([("link", 0, True)], [0, 0, 0], False)] + [CALM] * 4),
    ],
    ids=["old-pair-out-of-bound-at-a-join", "two-healing-ends", "streak-inside-grace"],
)
def test_joins_log_and_streaks_without_per_pair_state(overrides):
    run_schedule(_plan(
        edges=[(0, 1), (1, 2)], increments=[1] * 3, group=[0] * 3, gap=0, **overrides
    ))
