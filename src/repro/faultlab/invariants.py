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
3. **wrap-codec** — the 53-bit low half of every counter survives the
   encode/reconstruct round trip, both against the node's own counter and
   against every in-bound peer's counter (Section 4.4 wraparound).

Fault models tell the checker which nodes are deliberately broken
(:meth:`InvariantChecker.quarantine`) so injected faults do not drown the
report in expected noise; when a fault heals (:meth:`release`) the checker
watches the node converge and records the **recovery time**.  A fault the
protocol cannot defend against — a two-faced peer — is *not* quarantined,
which is exactly how the checker flags it.

In ``raise_on_violation`` mode the first violation raises a structured
:class:`InvariantViolation` carrying the full event context (all counters,
port states, quarantine sets) for post-mortem debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..dtp import messages as dtpmsg
from ..dtp.analysis import DIRECT_BOUND_TICKS
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


class InvariantViolation(AssertionError):
    """A checked invariant failed; carries the violation and a full snapshot."""

    def __init__(self, violation: Violation, context: Dict[str, object]):
        self.violation = violation
        self.context = context
        super().__init__(
            f"{violation.invariant} violated at t={violation.time_fs} fs "
            f"on {violation.subject}: {violation.detail}"
        )


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
        bound_ticks_per_hop: int = DIRECT_BOUND_TICKS,
        slack_ticks: int = 0,
        grace_fs: int = DEFAULT_GRACE_FS,
        raise_on_violation: bool = False,
        max_recorded: int = 1000,
        start_fs: int = 0,
        transient_allowance_intervals: int = 0,
    ) -> None:
        """``transient_allowance_intervals`` — opt-in forgiveness for the
        known 4T propagation transient: a pair may sit above its bound for
        up to this many *consecutive* check ticks before a violation is
        recorded (see docs/FAULTLAB.md, "Two readings of 4TD").  The
        default 0 keeps the strict instantaneous reading, under which the
        pinned ``test_known_adjacent_transient_exceeds_direct_bound``
        counterexample is (correctly) flagged."""
        self.network = network
        if interval_fs is None:
            interval_fs = (
                network.config.beacon_interval_ticks * network.spec.period_fs
            )
        if interval_fs <= 0:
            raise ValueError("interval_fs must be positive")
        self.interval_fs = interval_fs
        self.bound_ticks_per_hop = bound_ticks_per_hop
        self.slack_ticks = slack_ticks
        self.grace_fs = grace_fs
        self.raise_on_violation = raise_on_violation
        self.max_recorded = max_recorded
        if transient_allowance_intervals < 0:
            raise ValueError("transient_allowance_intervals must be >= 0")
        self.transient_allowance_intervals = transient_allowance_intervals
        #: Above-bound observations forgiven under the transient allowance.
        self.transients_forgiven = 0
        self._above_streak: Dict[Tuple[str, str], int] = {}

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
        #: Convergence log: one ``(a, b, connected_fs, recovered_after_fs)``
        #: tuple per pair (re)connection that came within bound.
        self.reconnect_recoveries: List[Tuple[str, str, int, int]] = []

        self._nodes = list(network.devices)
        self._node_order = {name: i for i, name in enumerate(self._nodes)}
        self._counter_reads = [
            (name, device.global_counter) for name, device in network.devices.items()
        ]
        ports = network.ports
        self._edge_ports = [
            (ports[(edge.a, edge.b)], ports[(edge.b, edge.a)])
            for edge in network.topology.edges
        ]
        #: Per edge, whether both ports were synchronized at the last poll;
        #: with ``_dirty`` (set by whatever else moves a signature input:
        #: the quarantine sets and the healing set) it tells ``_epoch_state``
        #: when ``_cache_key`` has to be recomputed at all.
        self._edge_synced = [False] * len(self._edge_ports)
        self._dirty = True
        self._last_counter: Dict[str, int] = {}
        self._connected_since: Dict[Tuple[str, str], int] = {}
        #: ``(earliest, latest)`` connect time in ``_connected_since`` (None
        #: while empty), kept by the sweep: answers "every pair past grace"
        #: and "every pair inside grace" without a walk.
        self._connect_span: Optional[Tuple[int, int]] = None
        self._awaiting_recovery: Dict[Tuple[str, str], int] = {}
        self._quarantined: Dict[str, str] = {}
        #: Edges (sorted endpoint pairs) excluded from the synchronized
        #: subgraph while link supervision holds them in recovery.  Unlike
        #: node quarantine, an edge quarantine leaves both endpoint nodes
        #: checkable over whatever other paths connect them.
        self._edge_quarantined: Dict[Tuple[str, str], str] = {}
        # Per-epoch caches, holding exactly what a per-tick recomputation
        # would produce.  Distances follow the connectivity signature
        # (synchronized edges, quarantined nodes and edges); the pair
        # structures also follow the healing set and the increments.
        self._conn_sig: Optional[tuple] = None
        self._pairs_sig: Optional[tuple] = None
        self._cache_distances: Dict[str, Dict[str, int]] = {}
        #: Checkable pairs as ``(a, b, bound)`` in i<j node order; the
        #: hop-1 ones again in ``_cache_links``.
        self._cache_pairs: List[Tuple[str, str, int]] = []
        self._cache_links: List[Tuple[str, str, int]] = []
        #: The same pairs filed as ``(component, hops, bound, pairs)``, so a
        #: tick can clear a whole bucket by comparing its bound with the
        #: counter spread of ``_cache_members[component]``.
        self._cache_buckets: List[Tuple[int, int, int, list]] = []
        self._cache_members: List[List[str]] = []
        #: Connectivity signature of the last sweep: while it equals
        #: ``_conn_sig`` every cached pair is in ``_connected_since``.
        self._swept_sig: Optional[tuple] = None
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
        self._event = network.sim.schedule_at(
            max(start_fs, network.sim.now), self._tick
        )

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

    def quarantine_edge(self, a: str, b: str, reason: str) -> None:
        """Exclude the a-b link from the synchronized subgraph.

        Used by :mod:`repro.linkhealth` to hold a recovering link out of
        the 4TD pair graph until its rejoin handshake completes.  Edge
        quarantine is deliberately trace-silent: the supervisor already
        emits ``EV_LINK_*`` records for the same transitions, and a second
        event stream would double-count the incident.
        """
        self._check_node(a)
        self._check_node(b)
        self._dirty = True
        self._edge_quarantined[(a, b) if a < b else (b, a)] = reason

    def release_edge(self, a: str, b: str, reason: str) -> None:
        """Re-admit the a-b link to the synchronized subgraph."""
        del reason
        self._check_node(a)
        self._check_node(b)
        self._dirty = True
        self._edge_quarantined.pop((a, b) if a < b else (b, a), None)

    def notify_counter_reset(self, node: str) -> None:
        """A device's counter was legitimately reset (crash-and-restart)."""
        self._check_node(node)
        self._last_counter.pop(node, None)

    def _check_node(self, node: str) -> None:
        if node not in self.network.devices:
            raise KeyError(f"unknown node {node!r}")

    @property
    def quarantined_nodes(self) -> List[str]:
        return sorted(self._quarantined)

    @property
    def healing_nodes(self) -> List[str]:
        return sorted(self._healing)

    def stop(self) -> None:
        self.network.sim.cancel(self._event)
        self._event = None

    # ------------------------------------------------------------------
    # Topology helpers (synchronized subgraph)
    # ------------------------------------------------------------------
    def _sync_adjacency(self) -> Dict[str, List[str]]:
        """Adjacency over links whose both ports are SYNCHRONIZED, skipping
        quarantined endpoints (their links carry deliberately bad data)."""
        adjacency: Dict[str, List[str]] = {name: [] for name in self._nodes}
        quarantined_edges = self._edge_quarantined
        for edge, (port_a, port_b) in zip(
            self.network.topology.edges, self._edge_ports
        ):
            if edge.a in self._quarantined or edge.b in self._quarantined:
                continue
            if quarantined_edges and (
                (edge.a, edge.b) if edge.a < edge.b else (edge.b, edge.a)
            ) in quarantined_edges:
                continue
            if port_a.synchronized and port_b.synchronized:
                adjacency[edge.a].append(edge.b)
                adjacency[edge.b].append(edge.a)
        return adjacency

    @staticmethod
    def _distances_from(
        start: str, adjacency: Dict[str, List[str]]
    ) -> Dict[str, int]:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for peer in adjacency[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        next_frontier.append(peer)
            frontier = next_frontier
        return dist

    def _all_distances(self) -> Dict[str, Dict[str, int]]:
        adjacency = self._sync_adjacency()
        return {
            name: self._distances_from(name, adjacency) for name in self._nodes
        }

    def _cache_key(self) -> Tuple[tuple, tuple]:
        """``(connectivity, pair-set)`` signatures, O(nodes + edges)."""
        devices = self.network.devices
        sync_edges = tuple(
            idx
            for idx, (port_a, port_b) in enumerate(self._edge_ports)
            if port_a.synchronized and port_b.synchronized
        )
        held = frozenset(self._edge_quarantined)
        return (sync_edges, frozenset(self._quarantined), held), (
            frozenset(self._healing),
            tuple(devices[name].counter_increment for name in self._nodes),
        )

    def _epoch_state(self) -> Dict[str, Dict[str, int]]:
        """Bring the per-epoch caches up to date; returns the distances.

        A connectivity change costs one all-pairs BFS and one pair build;
        a healing-set change only the pair build.  The signatures are only
        recomputed when one of their inputs moved: an edge's synchronized
        flag since the last poll, or whatever sets ``_dirty``.
        """
        synced = self._edge_synced
        moved = self._dirty
        for index, (port_a, port_b) in enumerate(self._edge_ports):
            up = port_a.synchronized and port_b.synchronized
            if up != synced[index]:
                synced[index] = up
                moved = True
        if not moved:
            return self._cache_distances
        self._dirty = False
        conn_sig, pairs_sig = self._cache_key()
        if conn_sig != self._conn_sig:
            self._cache_distances = self._all_distances()
            self._conn_sig = conn_sig
            self._pairs_sig = None
        if pairs_sig != self._pairs_sig:
            self._build_pairs()
            self._pairs_sig = pairs_sig
        return self._cache_distances

    def _build_pairs(self) -> None:
        """File every checkable pair (neither node quarantined or healing,
        same component) in the i<j list and in its bucket."""
        distances = self._cache_distances
        devices = self.network.devices
        order = self._node_order
        skip = self._quarantined.keys() | self._healing.keys()
        per_hop, slack = self.bound_ticks_per_hop, self.slack_ticks
        pairs: List[Tuple[str, str, int]] = []
        buckets: Dict[Tuple[int, int, int], tuple] = {}
        members: List[List[str]] = []
        later: Dict[str, Tuple[int, List[str]]] = {}
        for a in self._nodes:
            if a in skip:
                continue
            dist_a = distances[a]
            if a not in later:
                # First checkable node of its component: its BFS names the
                # members, and every one of them sorts after it.
                group = sorted(
                    (n for n in dist_a if n not in skip), key=order.__getitem__
                )
                if len(group) < 2:
                    continue
                members.append(group)
                for pos, node in enumerate(group):
                    later[node] = (len(members) - 1, group[pos + 1 :])
            component, peers = later[a]
            inc_a = devices[a].counter_increment
            for b in peers:
                hops = dist_a[b]
                inc_b = devices[b].counter_increment
                key = (component, hops, inc_a if inc_a >= inc_b else inc_b)
                bucket = buckets.get(key)
                if bucket is None:
                    bound = (per_hop * hops + slack) * key[2]
                    bucket = buckets[key] = (component, hops, bound, [])
                pair = (a, b, bucket[2])
                pairs.append(pair)
                bucket[3].append(pair)
        self._cache_pairs = pairs
        self._cache_buckets = list(buckets.values())
        self._cache_members = members
        self._cache_links = sorted(
            (pair for b in self._cache_buckets if b[1] == 1 for pair in b[3]),
            key=lambda pair: (order[pair[0]], order[pair[1]]),
        )

    def _pair_bound(self, a: str, b: str, hops: int) -> int:
        increment = max(
            self.network.devices[a].counter_increment,
            self.network.devices[b].counter_increment,
        )
        return (self.bound_ticks_per_hop * hops + self.slack_ticks) * increment

    def _all_past_grace(self, now: int) -> bool:
        """Every cached pair has been connected for ``grace_fs``, in O(1)."""
        if self.grace_fs <= 0:
            return True
        span = self._connect_span
        return (
            span is not None
            and self._swept_sig == self._conn_sig
            and now - span[1] >= self.grace_fs
        )

    def _past_grace(self, pairs: List[tuple], now: int) -> List[tuple]:
        """Those of the cached ``pairs`` that are past grace (a pair the
        sweep has not seen yet counts as connected just now)."""
        if self._all_past_grace(now):
            return pairs
        grace = self.grace_fs
        span = self._connect_span
        if span is None or now - span[0] < grace:
            return []
        since_map = self._connected_since
        return [
            pair
            for pair in pairs
            if now - since_map.get((pair[0], pair[1]), now) >= grace
        ]

    def _counters(self, now: int) -> Dict[str, int]:
        return {name: read(now) for name, read in self._counter_reads}

    def _spreads(self, counters: Dict[str, int]) -> List[int]:
        """``max(gc) - min(gc)`` over each component's checkable nodes."""
        spreads = []
        for group in self._cache_members:
            values = [counters[name] for name in group]
            spreads.append(max(values) - min(values))
        return spreads

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
        pairs = self._cache_pairs
        if enforce_grace:
            pairs = self._past_grace(pairs, self.network.sim.now)
        return list(pairs)

    def sample(
        self, want_links: bool
    ) -> Tuple[Optional[int], Optional[List[Tuple[str, str, int, int]]]]:
        """One sampler-grid instant: ``(worst_checkable_offset(),
        link_offsets() if want_links else None)`` from one epoch poll and one
        counter read."""
        self._epoch_state()
        now = self.network.sim.now
        counters = self._counters(now)
        if self._all_past_grace(now):
            # Every two checkable nodes of a component are a checkable pair.
            worst = max(self._spreads(counters), default=None)
        else:
            due = self._past_grace(self._cache_pairs, now)
            worst = max(
                (abs(counters[a] - counters[b]) for a, b, _ in due), default=None
            )
        links = self._link_offsets(now, counters, True) if want_links else None
        return worst, links

    def worst_checkable_offset(self) -> Optional[int]:
        """Largest |offset| among currently checkable pairs (None if none)."""
        return self.sample(False)[0]

    def link_offsets(
        self, enforce_grace: bool = True
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
        self._epoch_state()
        now = self.network.sim.now
        return self._link_offsets(now, self._counters(now), enforce_grace)

    def _link_offsets(
        self, now: int, counters: Dict[str, int], enforce_grace: bool
    ) -> List[Tuple[str, str, int, int]]:
        links = self._cache_links
        if enforce_grace:
            links = self._past_grace(links, now)
        return [(a, b, abs(counters[a] - counters[b]), bound) for a, b, bound in links]

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
        distances = self._epoch_state()

        # gc-monotonic and the wrap-codec self round trip in one pass that
        # records nothing: any node that would be (or be excused from being)
        # recorded, and a baseline that does not cover every node, send the
        # tick through the two recording checks instead.
        last = self._last_counter
        settled = len(last) == len(counters)
        if settled:
            low_mask = dtpmsg.COUNTER_LOW_MASK
            reconstruct = dtpmsg.reconstruct_counter
            for node, gc in counters.items():
                if gc <= last[node] or reconstruct(gc & low_mask, gc) != gc:
                    settled = False
                    break
        if settled:
            last.update(counters)
        else:
            self._check_monotonic(now, counters)
            self._check_wrap_codec(now, counters)
        self._check_pair_bounds(now, counters)
        self._update_connectivity_epochs(now, counters, distances)
        self._check_recoveries(now, counters, distances)

        if self._m_checks is not None:
            self._m_checks.value += 1
            self._m_pairs.value += self.pairs_checked - pairs_before
        if self._tracer is not None:
            self._tracer.record(
                now,
                EV_CHECK,
                self._tracer.subject_id("invariant-checker"),
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

    def _check_wrap_codec(self, now: int, counters: Dict[str, int]) -> None:
        for node in self._nodes:
            gc = counters[node]
            low = dtpmsg.counter_low(gc)
            if not 0 <= low <= dtpmsg.COUNTER_LOW_MASK:
                self._record(now, INVARIANT_WRAP, node, {"low": low, "gc": gc})
                continue
            if dtpmsg.reconstruct_counter(low, gc) != gc:
                self._record(
                    now,
                    INVARIANT_WRAP,
                    node,
                    {"low": low, "gc": gc, "kind": "self-roundtrip"},
                )

    def _check_pair_bounds(self, now: int, counters: Dict[str, int]) -> None:
        found: List[tuple] = []
        if self._all_past_grace(now):
            # The 4TD bound composes per hop, so inside one component a
            # counter spread that is already within a bucket's bound (and
            # below the wrap half-window) proves every pair of the bucket
            # in bound; only the buckets the spread exceeds are walked.
            spreads = self._spreads(counters)
            streaks = self._above_streak
            if streaks:
                # What the walk would do for a streak pair of a cleared
                # bucket: checkable and back in bound ends the streak.
                skip = self._quarantined.keys() | self._healing.keys()
                for a, b in list(streaks):
                    hops = self._cache_distances[a].get(b)
                    if hops is not None and skip.isdisjoint((a, b)) and abs(
                        counters[a] - counters[b]
                    ) <= self._pair_bound(a, b, hops):
                        del streaks[(a, b)]
            walked = 0
            for component, _hops, bound, pairs in self._cache_buckets:
                if spreads[component] <= bound and spreads[component] < _WRAP_HALF:
                    self.pairs_checked += len(pairs)
                else:
                    self._walk(counters, pairs, found)
                    walked += 1
            if walked > 1:
                order = self._node_order
                found.sort(key=lambda item: (order[item[0]], order[item[1]]))
        else:
            self._walk(
                counters, self._past_grace(self._cache_pairs, now), found
            )
        for a, b, invariant, detail in found:
            self._record(now, invariant, f"{a}-{b}", detail)
        if any(item[2] is INVARIANT_PAIR_BOUND for item in found):
            self.ticks_above_bound += 1

    def _walk(
        self, counters: Dict[str, int], pairs: List[tuple], found: List[tuple]
    ) -> None:
        """Check ``pairs`` (all past grace) one by one; what must be
        recorded is appended to ``found`` as ``(a, b, invariant, detail)``."""
        allowance = self.transient_allowance_intervals
        streaks = self._above_streak
        self.pairs_checked += len(pairs)
        for a, b, bound in pairs:
            offset = counters[a] - counters[b]
            if offset > bound or offset < -bound:
                streak = streaks.get((a, b), 0) + 1
                streaks[(a, b)] = streak
                if streak <= allowance:
                    # Known-benign propagation transient (a gc wave arriving
                    # at the two nodes one beacon apart): forgiven as long
                    # as it clears within the allowance.
                    self.transients_forgiven += 1
                    continue
                found.append(
                    (a, b, INVARIANT_PAIR_BOUND, {"offset": offset, "bound": bound})
                )
            else:
                if streaks:
                    streaks.pop((a, b), None)
                if -_WRAP_HALF < offset < _WRAP_HALF:
                    continue
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
        self,
        now: int,
        counters: Dict[str, int],
        distances: Dict[str, Dict[str, int]],
    ) -> None:
        awaiting = self._awaiting_recovery
        if self._swept_sig != self._conn_sig:
            # The connected-pair set is a function of the connectivity
            # signature alone, so epochs start and end only when it moves.
            since_map = self._connected_since
            for pair in [p for p in since_map if p[1] not in distances[p[0]]]:
                del since_map[pair]
                awaiting.pop(pair, None)
            nodes = self._nodes
            for i, a in enumerate(nodes):
                dist_a = distances[a]
                if len(dist_a) < 2:
                    continue  # isolated, as every quarantined node is
                for b in nodes[i + 1 :]:
                    if b in dist_a:
                        pair = (a, b)  # one key object for both maps
                        if pair not in since_map:
                            since_map[pair] = awaiting[pair] = now
            values = since_map.values()
            self._connect_span = (min(values), max(values)) if values else None
            self._swept_sig = self._conn_sig
        elif not awaiting:
            return
        for pair, since in list(awaiting.items()):
            a, b = pair
            if abs(counters[a] - counters[b]) <= self._pair_bound(
                a, b, distances[a][b]
            ):
                del awaiting[pair]
                self.reconnect_recoveries.append((a, b, since, now - since))

    def _check_recoveries(
        self,
        now: int,
        counters: Dict[str, int],
        distances: Dict[str, Dict[str, int]],
    ) -> None:
        if not self._healing:
            return
        for node, (reason, since_fs, required) in list(self._healing.items()):
            reachable = distances[node]
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
        if len(self.violations) < self.max_recorded:
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
        if self.raise_on_violation:
            raise InvariantViolation(violation, self._context(now))

    def snapshot_context(self, now: Optional[int] = None) -> Dict[str, object]:
        """Public snapshot of the checker's full event context.

        The same structure :class:`InvariantViolation` carries; the flight
        recorder uses it to annotate artifacts for violations that were
        recorded without raising.
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
