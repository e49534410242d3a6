"""Runtime invariant checking for DTP networks.

The checker is an always-on probe (in the spirit of
:class:`~repro.dtp.monitor.BoundMonitor`, but reading ground truth instead
of the LOG channel) that wakes every beacon interval and asserts the
properties the paper proves:

1. **pair-bound** — any two synchronized, non-faulted nodes that can reach
   each other over currently-synchronized links are within ``4 T D`` counter
   units, where ``D`` is their hop distance over those links (Section 3.3);
2. **gc-monotonic** — every device's global counter is strictly monotonic,
   including across Algorithm 2's ``gc <- max(gc, lc_i)`` merges;
3. **wrap-codec** — the 53-bit low half of a node's counter,
   reconstructed against an in-bound peer's counter, recovers the node's
   exact counter (Section 4.4 wraparound).  Only the cross-node trip can
   fail: against the node's own counter the round trip holds for every
   int (``tests/test_dtp_messages.py``), so it is not checked at run time.

Fault models tell the checker which nodes are deliberately broken
(:meth:`InvariantChecker.quarantine`) so injected faults do not drown the
report in expected noise; when a fault heals (:meth:`release`) the checker
watches the node converge and records the **recovery time**.  A fault the
protocol cannot defend against — a two-faced peer — is *not* quarantined,
which is exactly how the checker flags it.

The bound is the paper's, read strictly: ``4 x hops`` counter units of the
pair's larger increment at every check tick, with nothing widened and no
excursion forgiven.  Violations are recorded, never raised; the campaign
runner dumps a flight artifact with :meth:`InvariantChecker.snapshot_context`
when a run recorded any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from ..clocks.clock import TickClock
from ..dtp import messages as dtpmsg
from ..dtp.analysis import DIRECT_BOUND_TICKS
from ..dtp.device import DtpDevice
from ..dtp.network import DtpNetwork
from ..sim import units
from ..telemetry.events import (
    EV_CHECK,
    EV_QUARANTINE,
    EV_RELEASE,
    EV_VIOLATION,
)

INVARIANT_PAIR_BOUND = "pair-bound"
INVARIANT_MONOTONIC = "gc-monotonic"
INVARIANT_WRAP = "wrap-codec"

#: How long a freshly (re)connected pair may converge before the bound is
#: enforced: BEACON_JOIN must propagate and the max-merge settle, which
#: takes a handful of beacon flights (Section 3.2, network dynamics).
DEFAULT_GRACE_FS = 50 * units.US

#: ``reconstruct_counter`` picks the unique value congruent to ``low`` within
#: [reference - 2^(bits-1), reference + 2^(bits-1)), so while |gc_a - gc_b|
#: sits strictly inside that half-window the cross-node round trip provably
#: recovers gc_a -- only offsets near the wrap boundary need the codec call.
_WRAP_HALF = 1 << (dtpmsg.COUNTER_LOW_BITS - 1)

#: At most this many violations are kept as objects; ``counts`` and
#: ``total_violations`` count every one.
MAX_RECORDED = 1000

#: A campaign samples the worst offset once every this many checker
#: intervals, on every backend.
SAMPLE_EVERY = 4


def default_interval_fs(network: DtpNetwork) -> int:
    """The checker's interval when none is given: one beacon interval."""
    return network.config.beacon_interval_ticks * network.spec.period_fs

#: ``InvariantChecker._past_grace``'s answer: True (every connected pair),
#: None (none), or the groups two nodes must share.
_Grace = Optional[Union[bool, Dict[str, int]]]


@dataclass
class Violation:
    """One invariant violation, with enough context to reproduce it."""

    time_fs: int
    invariant: str
    subject: str
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_fs": self.time_fs,
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": dict(self.detail),
        }


class ReconnectLog:
    """Convergence log of pair (re)connections that came within bound.

    ``rows`` holds ``(connected_fs, recovered_after_fs, pairs)``: how many
    pairs that connected at ``connected_fs`` were found within their bound
    ``recovered_after_fs`` later.  ``len()`` is the number of pairs.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, int]] = []
        self._pairs = 0

    def add(self, connected_fs: int, recovered_after_fs: int, pairs: int) -> None:
        if pairs:
            self.rows.append((connected_fs, recovered_after_fs, pairs))
            self._pairs += pairs

    def __len__(self) -> int:
        return self._pairs


class _Component:
    """One component (two nodes or more) of the synchronized subgraph."""

    __slots__ = ("nodes", "members", "pairs", "min_increment", "links")

    def __init__(self) -> None:
        #: Every node of the component / the checkable ones (neither
        #: quarantined nor healing), both in node order.
        self.nodes: List[str] = []
        self.members: List[str] = []
        #: C(len(members), 2).
        self.pairs = 0
        self.min_increment = 1
        #: The checkable hop-1 pairs as ``(a, b, bound)``: the synchronized
        #: edges between two members.
        self.links: List[Tuple[str, str, int]] = []


class InvariantChecker:
    """Checks DTP invariants on a fixed simulated cadence.

    Construct the checker *before* the run (it samples counters live —
    disciplined clocks cannot be read retroactively); it keeps rescheduling
    itself until :meth:`stop` or the end of the simulation.  Only
    ``schedule``/``schedule_at``/``cancel`` are used, so the checker also
    runs on the verbatim-seed engine used by the equivalence tests.
    """

    def __init__(
        self,
        network: DtpNetwork,
        interval_fs: Optional[int] = None,
        grace_fs: int = DEFAULT_GRACE_FS,
    ) -> None:
        """Every run builds ``InvariantChecker(network)``: one check per
        beacon interval, :data:`DEFAULT_GRACE_FS` of grace.  ``interval_fs``
        and ``grace_fs`` stay arguments because
        ``tests/test_checker_reference.py`` drives a fake network on its own
        tick grid, with grace 0 as well as the default."""
        self.network = network
        if interval_fs is None:
            interval_fs = default_interval_fs(network)
        if interval_fs <= 0:
            raise ValueError("interval_fs must be positive")
        self.interval_fs = interval_fs
        self.grace_fs = grace_fs

        self.violations: List[Violation] = []
        self.counts: Dict[str, int] = {}
        #: ``sum(counts.values())``, kept by ``_record``.
        self.total_violations = 0
        self.checks_run = 0
        self.pairs_checked = 0
        #: Check ticks during which at least one pair was out of bound.
        self.ticks_above_bound = 0
        #: Fault reason -> list of recovery durations (release -> in-bound).
        self.recovery_fs: Dict[str, List[int]] = {}
        #: Convergence log of pair (re)connections that came within bound;
        #: ``len()`` is the number of pairs.
        self.reconnect_recoveries = ReconnectLog()

        self._nodes = list(network.devices)
        self._node_order = {name: i for i, name in enumerate(self._nodes)}
        #: Per node: device, and whether its class reads ``gc`` as DtpDevice
        #: does (then a tick reads a plain TickClock gc itself).
        plain = DtpDevice.global_counter
        self._counter_reads = [
            (name, device, getattr(type(device), "global_counter", None) is plain)
            for name, device in network.devices.items()
        ]
        #: The ``EV_CHECK`` subject id, interned at the first traced tick.
        self._check_sid: Optional[int] = None
        ports = network.ports
        self._edge_ports = [
            (ports[(edge.a, edge.b)], ports[(edge.b, edge.a)])
            for edge in network.topology.edges
        ]
        #: Per edge, whether both ports were synchronized at the last poll;
        #: with ``_dirty`` (set when the quarantine or the healing set
        #: moves) it tells ``_epoch_state`` when a new epoch starts.
        self._edge_synced = [False] * len(self._edge_ports)
        self._dirty = True
        self._epoch = 0
        self._last_counter: Dict[str, int] = {}
        #: Connect times, as the sweeps' merges: ``(time, group of each node
        #: then connected, pairs sharing a group)``, oldest first, each level
        #: a refinement of the next and of the components at the last sweep.
        #: A pair has been connected since the oldest level that has its two
        #: nodes in one group.
        self._merges: List[Tuple[int, Dict[str, int], int]] = []
        #: Connected pairs seen out of bound since they connected, with
        #: their connect time: the part of the convergence log still open.
        self._late: Dict[Tuple[str, str], int] = {}
        self._quarantined: Dict[str, str] = {}
        # Per-epoch state, holding exactly what a per-tick recomputation
        # would produce.
        self._adjacency: Dict[str, List[str]] = {}
        #: Full BFS per source, filled on demand (late pairs, healing
        #: nodes).
        self._reach: Dict[str, Dict[str, int]] = {}
        self._component_of: Dict[str, int] = {}
        self._components: List[_Component] = []
        #: Those with two checkable members or more.
        self._groups: List[_Component] = []
        #: Every component's ``links``, in i<j node order.
        self._links: List[Tuple[str, str, int]] = []
        #: The epoch of the last sweep: while it is ``_epoch`` every
        #: connected pair is in ``_merges``.
        self._swept_epoch = 0
        #: node -> (fault reason, healing since, peers that must be back
        #: in bound before the node counts as recovered).
        self._healing: Dict[str, Tuple[str, int, FrozenSet[str]]] = {}
        # Telemetry rides along with the network's (None = disabled).
        telemetry = getattr(network, "telemetry", None)
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            registry = telemetry.registry
            self._m_checks = registry.counter(
                "invariant_checks_total", "invariant-checker ticks executed"
            ).labels()
            self._m_pairs = registry.counter(
                "invariant_pairs_checked_total",
                "node pairs evaluated against the 4TD bound",
            ).labels()
            self._m_violations = registry.counter(
                "invariant_violations_total",
                "invariant violations recorded, by invariant",
                labelnames=("invariant",),
            )
            self._m_quarantined = registry.gauge(
                "invariant_quarantined_nodes",
                "nodes currently excluded from checking by active faults",
            ).labels()
        else:
            self._m_checks = None
            self._m_pairs = None
            self._m_violations = None
            self._m_quarantined = None
        self._event = network.sim.schedule_at(network.sim.now, self._tick)

    # ------------------------------------------------------------------
    # Fault-model API
    # ------------------------------------------------------------------
    def quarantine(self, nodes: Iterable[str], reason: str) -> None:
        """Exclude ``nodes`` from violation checks (a fault is active)."""
        self._dirty = True
        for node in nodes:
            self._check_node(node)
            self._quarantined[node] = reason
            if self._tracer is not None:
                self._tracer.record(
                    self.network.sim.now,
                    EV_QUARANTINE,
                    self._tracer.subject_id(node),
                    self._tracer.subject_id(reason),
                )
        if self._m_quarantined is not None:
            self._m_quarantined.value = len(self._quarantined)

    def release(
        self,
        nodes: Iterable[str],
        reason: str,
        wait_for: Optional[Iterable[str]] = None,
    ) -> None:
        """The fault healed: watch ``nodes`` converge and time the recovery.

        ``wait_for`` names peers that must be reachable (and in bound)
        before the node counts as recovered — e.g. the far side of a healed
        partition.  Without it a node is recovered as soon as it is in
        bound with everything it can currently reach.
        """
        now = self.network.sim.now
        required = frozenset(wait_for or ())
        self._dirty = True
        for node in nodes:
            self._check_node(node)
            self._quarantined.pop(node, None)
            self._healing[node] = (reason, now, required)
            if self._tracer is not None:
                self._tracer.record(
                    now,
                    EV_RELEASE,
                    self._tracer.subject_id(node),
                    self._tracer.subject_id(reason),
                )
        if self._m_quarantined is not None:
            self._m_quarantined.value = len(self._quarantined)

    def notify_counter_reset(self, node: str) -> None:
        """A device's counter was legitimately reset (crash-and-restart)."""
        self._check_node(node)
        self._last_counter.pop(node, None)

    def _check_node(self, node: str) -> None:
        if node not in self.network.devices:
            raise KeyError(f"unknown node {node!r}")

    def stop(self) -> None:
        self.network.sim.cancel(self._event)
        self._event = None

    # ------------------------------------------------------------------
    # Topology helpers (synchronized subgraph)
    # ------------------------------------------------------------------
    def _sync_adjacency(self) -> Dict[str, List[str]]:
        """Adjacency over the links ``_edge_synced`` has up, skipping
        quarantined endpoints (their links carry deliberately bad data)."""
        adjacency: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for edge, up in zip(self.network.topology.edges, self._edge_synced):
            if up and edge.a not in self._quarantined and edge.b not in self._quarantined:
                adjacency[edge.a].append(edge.b)
                adjacency[edge.b].append(edge.a)
        return adjacency

    @staticmethod
    def _distances_from(
        start: str, adjacency: Dict[str, List[str]], limit: int
    ) -> Dict[str, int]:
        """Hop distances from ``start``, no further than ``limit`` hops."""
        dist = {start: 0}
        frontier = [start]
        hops = 0
        while frontier and hops < limit:
            hops += 1
            next_frontier = []
            for node in frontier:
                for peer in adjacency[node]:
                    if peer not in dist:
                        dist[peer] = hops
                        next_frontier.append(peer)
            frontier = next_frontier
        return dist

    def _distances(self, node: str) -> Dict[str, int]:
        """Everything ``node`` reaches, with hop distances: one BFS per
        source and epoch, run when something asks."""
        reach = self._reach.get(node)
        if reach is None:
            reach = self._reach[node] = self._distances_from(
                node, self._adjacency, len(self._nodes)
            )
        return reach

    def _epoch_state(self) -> None:
        """Bring the per-epoch state up to date.

        A new epoch starts when an edge's synchronized flag moved since the
        last poll, or whatever sets ``_dirty`` did (a quarantine, a release,
        a healing completion); it costs one traversal of the synchronized
        subgraph and nothing else does.  Increments are fixed when the
        network is built, so they start none.
        """
        synced = self._edge_synced
        moved = self._dirty
        for index, (port_a, port_b) in enumerate(self._edge_ports):
            up = port_a.synchronized and port_b.synchronized
            if up != synced[index]:
                synced[index] = up
                moved = True
        if moved:
            self._dirty = False
            self._epoch += 1
            self._adjacency = self._sync_adjacency()
            self._reach = {}
            self._find_components()

    def _find_components(self) -> None:
        """One traversal of the synchronized subgraph: its components, the
        checkable members of each, their pair count and their links."""
        adjacency = self._adjacency
        component_of: Dict[str, int] = {}
        components: List[_Component] = []
        for start in self._nodes:
            if start in component_of or not adjacency[start]:
                continue  # isolated, as every quarantined node is
            index = component_of[start] = len(components)
            components.append(_Component())
            frontier = [start]
            while frontier:
                for peer in adjacency[frontier.pop()]:
                    if peer not in component_of:
                        component_of[peer] = index
                        frontier.append(peer)
        devices = self.network.devices
        skip = self._quarantined.keys() | self._healing.keys()
        for name in self._nodes:
            index = component_of.get(name)
            if index is not None:
                components[index].nodes.append(name)
                if name not in skip:
                    components[index].members.append(name)
        self._component_of = component_of
        self._components = components
        self._groups = [c for c in components if len(c.members) > 1]
        for component in self._groups:
            members = component.members
            component.pairs = len(members) * (len(members) - 1) // 2
            component.min_increment = min(
                devices[name].counter_increment for name in members
            )
            component.links = self._near(component, 1)
        self._links = self._in_order(
            link for component in self._groups for link in component.links
        )

    def _near(self, component: _Component, depth: int) -> List[Tuple[str, str, int]]:
        """``component``'s checkable pairs at most ``depth`` hops apart, as
        ``(a, b, bound)``: a BFS of that depth from every member."""
        order = self._node_order
        rank = {name: order[name] for name in component.members}
        return [
            (a, b, self._pair_bound(a, b, hops))
            for a in component.members
            for b, hops in self._distances_from(a, self._adjacency, depth).items()
            if rank.get(b, -1) > rank[a]
        ]

    def _unproven(
        self, component: _Component, spread: int
    ) -> List[Tuple[str, str, int]]:
        """The checkable pairs of ``component`` that a counter spread of
        ``spread`` over its members does not prove in bound.

        The bound composes per hop (4T a hop, so 4TD at D hops; Section
        3.3), and a pair D hops apart has a bound of at least ``4 D`` times
        the component's smallest increment: ``spread`` proves it unless D <
        spread / (4 x min increment).  The wrap check is vacuous below the
        wrap half-window, so a spread that reaches it proves nothing.  Hop 1
        is ``links``, built once an epoch; a deeper spread runs a BFS of its
        depth now, and keeps nothing.
        """
        if spread >= _WRAP_HALF:
            return self._near(component, len(component.nodes))
        ticks = -(-spread // component.min_increment)
        depth = -(-ticks // DIRECT_BOUND_TICKS) - 1
        if depth < 2:
            return component.links if depth == 1 else []
        return self._near(component, depth)

    def _in_order(self, pairs: Iterable[tuple]) -> List[tuple]:
        """``pairs`` (or whatever starts with one) in i<j node order."""
        order = self._node_order
        return sorted(pairs, key=lambda item: (order[item[0]], order[item[1]]))

    def _pair_bound(self, a: str, b: str, hops: int) -> int:
        increment = max(
            self.network.devices[a].counter_increment,
            self.network.devices[b].counter_increment,
        )
        return DIRECT_BOUND_TICKS * hops * increment

    def _past_grace(self, now: int) -> _Grace:
        """Which checkable pairs have been connected for ``grace_fs``:
        True (all of them), None (none), or the groups of the newest merge
        level that old -- a pair is past grace when both its nodes share a
        group there (a pair the sweep has not seen yet counts as connected
        just now, and shares none)."""
        if self.grace_fs <= 0:
            return True
        merges = self._merges
        horizon = now - self.grace_fs
        if not merges or merges[0][0] > horizon:
            return None
        if merges[-1][0] <= horizon and self._swept_epoch == self._epoch:
            return True
        return next(groups for time, groups, _ in reversed(merges) if time <= horizon)

    @staticmethod
    def _due(pairs: List[tuple], state: _Grace) -> List[tuple]:
        """Those of ``pairs`` that are past grace under ``_past_grace``'s
        answer ``state``."""
        if state is True:
            return pairs
        if state is None:
            return []
        group = state.get
        return [pair for pair in pairs if group(pair[0], -1) == group(pair[1], -2)]

    @staticmethod
    def _spread(
        component: _Component, counters: Dict[str, int], state: _Grace
    ) -> Tuple[int, int]:
        """``(largest |offset| among them, how many)`` for ``component``'s
        checkable pairs that are past grace under ``state`` (not None).

        Every two checkable nodes that share a component now and a group in
        ``state`` are such a pair, so the largest offset is the largest
        ``max(gc) - min(gc)`` over those shared groups, and some pair has it.
        """
        if state is True:
            values = [counters[name] for name in component.members]
            return max(values) - min(values), component.pairs
        spans: Dict[int, List[int]] = {}
        for name in component.members:
            group = state.get(name)
            if group is not None:
                value = counters[name]
                span = spans.get(group)
                if span is None:
                    spans[group] = [value, value, 1]
                else:
                    if value < span[0]:
                        span[0] = value
                    elif value > span[1]:
                        span[1] = value
                    span[2] += 1
        return (
            max((high - low for low, high, _ in spans.values()), default=0),
            sum(size * (size - 1) // 2 for _, _, size in spans.values()),
        )

    def _counters(self, now: int) -> Dict[str, int]:
        counters = {}
        for name, device, plain in self._counter_reads:
            gc = device.gc if plain else None
            if type(gc) is TickClock:  # DtpDevice.global_counter, inline
                counters[name] = gc.increment * gc.oscillator.ticks_at(now) + gc.offset
            else:  # a FollowerClock gc, a subclass's or a shim's own read
                counters[name] = device.global_counter(now)
        return counters

    def checkable_pairs(
        self, enforce_grace: bool = True
    ) -> List[Tuple[str, str, int]]:
        """Pairs currently subject to the bound check, as ``(a, b, bound)``.

        A pair qualifies when neither node is quarantined or healing, both
        sit in the same component of the synchronized subgraph, and (if
        ``enforce_grace``) the pair has been connected at least
        ``grace_fs``.
        """
        self._epoch_state()
        state = self._past_grace(self.network.sim.now) if enforce_grace else True
        if state is None:
            return []
        return self._due(
            self._in_order(
                pair
                for component in self._groups
                for pair in self._near(component, len(component.nodes))
            ),
            state,
        )

    def sample(
        self, want_links: bool
    ) -> Tuple[Optional[int], Optional[List[Tuple[str, str, int, int]]]]:
        """One sampler-grid instant: ``(worst_checkable_offset(), the
        adjacent-link offsets if want_links else None)`` from one epoch poll
        and one counter read."""
        self._epoch_state()
        now = self.network.sim.now
        counters = self._counters(now)
        state = self._past_grace(now)
        worst = None
        if state is not None:
            for component in self._groups:
                spread, due = self._spread(component, counters, state)
                if due and (worst is None or spread > worst):
                    worst = spread
        links = self._link_offsets(counters, state) if want_links else None
        return worst, links

    def worst_checkable_offset(self) -> Optional[int]:
        """Largest |offset| among currently checkable pairs (None if none)."""
        return self.sample(False)[0]

    def _link_offsets(
        self, counters: Dict[str, int], state: _Grace
    ) -> List[Tuple[str, str, int, int]]:
        """Offsets on currently checkable *adjacent* links.

        Returns ``[(a, b, offset, bound)]`` for every checkable pair at
        distance 1 in the synchronized subgraph — the per-link error
        distribution the ``repro.observe`` probe accumulates.  Filtering
        (quarantine, healing, grace) and bounds match
        :meth:`checkable_pairs` exactly, and the enumeration order is the
        deterministic i<j node order, so serial and sharded-replay
        checkers produce identical link streams.
        """
        if state is None:
            return []
        return [
            (a, b, abs(counters[a] - counters[b]), bound)
            for a, b, bound in self._due(self._links, state)
        ]

    # ------------------------------------------------------------------
    # The check tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        sim = self.network.sim
        now = sim.now
        self.checks_run += 1
        pairs_before = self.pairs_checked
        violations_before = self.total_violations
        counters = self._counters(now)
        self._epoch_state()

        # gc-monotonic in one pass that records nothing: any node that would
        # be (or be excused from being) recorded, and a baseline that does
        # not cover every node, send the tick through the recording check.
        last = self._last_counter
        settled = len(last) == len(counters)
        if settled:
            for node, gc in counters.items():
                if gc <= last[node]:
                    settled = False
                    break
        if settled:
            last.update(counters)
        else:
            self._check_monotonic(now, counters)
        self._check_pair_bounds(now, counters)
        self._update_connectivity_epochs(now, counters)
        self._check_recoveries(now, counters)

        if self._m_checks is not None:
            self._m_checks.value += 1
            self._m_pairs.value += self.pairs_checked - pairs_before
        if self._tracer is not None:
            if self._check_sid is None:
                self._check_sid = self._tracer.subject_id("invariant-checker")
            self._tracer.record(
                now,
                EV_CHECK,
                self._check_sid,
                self.pairs_checked - pairs_before,
                self.total_violations - violations_before,
            )

        self._event = sim.schedule(self.interval_fs, self._tick)

    def _check_monotonic(self, now: int, counters: Dict[str, int]) -> None:
        for node in self._nodes:
            previous = self._last_counter.get(node)
            if (
                previous is not None
                and counters[node] <= previous
                and node not in self._quarantined
                and node not in self._healing
            ):
                self._record(
                    now,
                    INVARIANT_MONOTONIC,
                    node,
                    {"previous": previous, "current": counters[node]},
                )
            self._last_counter[node] = counters[node]

    def _check_pair_bounds(self, now: int, counters: Dict[str, int]) -> None:
        found: List[tuple] = []
        state = self._past_grace(now)
        if state is not None:
            # Every checkable pair of a component counts; only those its
            # spread does not prove in bound are walked.
            for component in self._groups:
                spread, due = self._spread(component, counters, state)
                self.pairs_checked += due
                pairs = self._unproven(component, spread)
                if pairs:
                    self._walk(counters, self._due(pairs, state), found)
            if len(found) > 1:
                found = self._in_order(found)
        for a, b, invariant, detail in found:
            self._record(now, invariant, f"{a}-{b}", detail)
        if any(item[2] is INVARIANT_PAIR_BOUND for item in found):
            self.ticks_above_bound += 1

    def _walk(
        self, counters: Dict[str, int], pairs: List[tuple], found: List[tuple]
    ) -> None:
        """Check ``pairs`` (all past grace) one by one; what must be
        recorded is appended to ``found`` as ``(a, b, invariant, detail)``."""
        for a, b, bound in pairs:
            offset = counters[a] - counters[b]
            if offset > bound or offset < -bound:
                found.append(
                    (a, b, INVARIANT_PAIR_BOUND, {"offset": offset, "bound": bound})
                )
            elif not -_WRAP_HALF < offset < _WRAP_HALF:
                # Wrap correctness *across* nodes: reconstructing a's low
                # half against b's counter must recover a's exact counter
                # whenever the pair is within bound (Section 4.4).
                low_a = dtpmsg.counter_low(counters[a])
                if dtpmsg.reconstruct_counter(low_a, counters[b]) != counters[a]:
                    found.append(
                        (
                            a,
                            b,
                            INVARIANT_WRAP,
                            {
                                "low": low_a,
                                "gc_a": counters[a],
                                "gc_b": counters[b],
                                "kind": "cross-node",
                            },
                        )
                    )

    def _update_connectivity_epochs(
        self, now: int, counters: Dict[str, int]
    ) -> None:
        late = self._late
        if not late and self._swept_epoch == self._epoch:
            return
        joined = False
        if self._swept_epoch != self._epoch:
            # The connected-pair set only moves with the epoch.
            component_of = self._component_of.get
            for pair in [
                p for p in late if component_of(p[0], -1) != component_of(p[1], -2)
            ]:
                del late[pair]
            joined = self._sweep(now)
            self._swept_epoch = self._epoch
        for pair, since in list(late.items()):
            a, b = pair
            if abs(counters[a] - counters[b]) <= self._pair_bound(
                a, b, self._distances(a)[b]
            ):
                del late[pair]
                self.reconnect_recoveries.add(since, now - since, 1)
        if joined:
            self._log_joined(now, counters)

    def _sweep(self, now: int) -> bool:
        """Bring the merge log to the current components, O(nodes) a level.

        A split restricts every level to the components (two nodes stay in
        one group only while they stay connected); pairs the components
        newly connect become one more level.  A level that no longer adds
        a pair to the one below is dropped, so there are never more levels
        than nodes.  Returns whether pairs connected.
        """
        component_of = self._component_of.get
        merges: List[Tuple[int, Dict[str, int], int]] = []
        below = 0
        for time, groups, _ in self._merges:
            ids: Dict[Tuple[int, int], int] = {}
            sizes: List[int] = []
            kept: Dict[str, int] = {}
            for name, group in groups.items():
                component = component_of(name)
                if component is not None:
                    key = (group, component)
                    index = ids.get(key)
                    if index is None:
                        index = ids[key] = len(sizes)
                        sizes.append(0)
                    kept[name] = index
                    sizes[index] += 1
            together = sum(size * (size - 1) // 2 for size in sizes)
            if together > below:
                merges.append((time, kept, together))
                below = together
        connected = sum(
            len(c.nodes) * (len(c.nodes) - 1) // 2 for c in self._components
        )
        self._merges = merges
        if connected == below:
            return False
        merges.append((now, dict(self._component_of), connected))
        return True

    def _log_joined(self, now: int, counters: Dict[str, int]) -> None:
        """Log the pairs this tick's sweep connected that are already within
        bound; the others wait in ``_late``.  Checkable pairs are cleared by
        their component's spread as on a tick; a healing node's pairs are
        looked at one by one."""
        below = self._merges[-2][1].get if len(self._merges) > 1 else None
        healing = self._healing
        order = self._node_order
        late = self._late
        logged = 0
        for component in self._components:
            nodes = component.nodes
            fresh = len(nodes) * (len(nodes) - 1) // 2
            if below is not None:
                sizes: Dict[int, int] = {}
                for name in nodes:
                    group = below(name)
                    if group is not None:
                        sizes[group] = sizes.get(group, 0) + 1
                fresh -= sum(size * (size - 1) // 2 for size in sizes.values())
                if not fresh:
                    continue
            logged += fresh
            # Connected pairs of the component that are out of bound now.
            beyond: List[Tuple[str, str]] = []
            if component.pairs:
                spread = self._spread(component, counters, True)[0]
                beyond.extend(
                    (a, b)
                    for a, b, bound in self._unproven(component, spread)
                    if abs(counters[a] - counters[b]) > bound
                )
            if len(component.members) < len(nodes):
                for node in nodes:
                    if node not in healing:
                        continue
                    reach = self._distances(node)
                    for peer in nodes:
                        if peer == node or (
                            peer in healing and order[peer] < order[node]
                        ):
                            continue
                        a, b = (node, peer) if order[node] < order[peer] else (peer, node)
                        if abs(counters[a] - counters[b]) > self._pair_bound(
                            a, b, reach[peer]
                        ):
                            beyond.append((a, b))
            for pair in beyond:
                if below is None or below(pair[0], -1) != below(pair[1], -2):
                    late[pair] = now
                    logged -= 1
        self.reconnect_recoveries.add(now, 0, logged)

    def _check_recoveries(self, now: int, counters: Dict[str, int]) -> None:
        if not self._healing:
            return
        for node, (reason, since_fs, required) in list(self._healing.items()):
            reachable = self._distances(node)
            if any(peer not in reachable for peer in required):
                continue  # the healed path has not re-synchronized yet
            peers = {
                peer
                for peer in reachable
                if peer != node
                and peer not in self._quarantined
                and (peer not in self._healing or peer in required)
            }
            if not peers:
                continue
            in_bound = all(
                abs(counters[node] - counters[peer])
                <= self._pair_bound(node, peer, reachable[peer])
                for peer in peers
            )
            if in_bound:
                self.recovery_fs.setdefault(reason, []).append(now - since_fs)
                del self._healing[node]
                self._dirty = True
                # Restart the monotonic baseline: the node may have been
                # reset while it was out of the checked set.
                self._last_counter[node] = counters[node]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self, now: int, invariant: str, subject: str, detail: Dict[str, object]
    ) -> None:
        violation = Violation(now, invariant, subject, detail)
        self.counts[invariant] = self.counts.get(invariant, 0) + 1
        self.total_violations += 1
        if len(self.violations) < MAX_RECORDED:
            self.violations.append(violation)
        if self._m_violations is not None:
            self._m_violations.labels(invariant=invariant).value += 1
        if self._tracer is not None:
            self._tracer.record(
                now,
                EV_VIOLATION,
                self._tracer.subject_id(subject),
                self._tracer.subject_id(invariant),
            )

    def snapshot_context(self, now: Optional[int] = None) -> Dict[str, object]:
        """Public snapshot of the checker's full event context (all
        counters, port states, quarantine and healing sets): the flight
        recorder annotates a run's artifact with it when violations were
        recorded.
        """
        return self._context(self.network.sim.now if now is None else now)

    def _context(self, now: int) -> Dict[str, object]:
        """Full event context for post-mortem debugging."""
        return {
            "time_fs": now,
            "counters": self._counters(now),
            "port_states": {
                f"{a}->{b}": port.state.value
                for (a, b), port in self.network.ports.items()
            },
            "quarantined": dict(self._quarantined),
            "healing": {
                node: {
                    "reason": reason,
                    "since_fs": since,
                    "wait_for": sorted(required),
                }
                for node, (reason, since, required) in self._healing.items()
            },
        }
