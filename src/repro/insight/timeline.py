"""Timeline reconstruction: per-port/per-node series rebuilt from a trace.

Everything here is derived *only* from EV_* records — no access to the
simulation objects — so the same timelines can be rebuilt offline from a
trace JSONL or a flight dump years after the run.  The reconstruction is
pure integer arithmetic (femtoseconds, counter units, mod-2^53 payloads),
so two same-seed traces reconstruct to identical timelines.

The load-bearing subtlety: EV_JUMP's ``a`` (delta vs the free-running
reference) is *not* an offset series — for plain (non-disciplined) tick
clocks the reference equals the counter, so beacon-jump deltas collapse to
the applied jump size.  Offsets are instead reconstructed from the global
counter values that EV_TX beacons carry: each ``(BEACON, payload)`` TX is
an *anchor* — the sender's gc (low 53 bits) at a known femtosecond — and
between anchors the counter is extrapolated at the nominal tick rate.
Extrapolation over at most a beacon interval at <= 100 ppm skew is far
below one tick of error, so the per-node series are tick-accurate and pair
offsets are exact up to +/- 1 tick of anchor quantization per node.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dtp import messages as dtpmsg
from ..phy.specs import PHY_10G
from ..telemetry.events import (
    EV_JUMP,
    EV_OWD,
    EV_PORT_STATE,
    EV_RX,
    EV_TX,
)
from ..telemetry.index import TraceIndex

#: Message types whose TX payload is the sender's global counter (low bits).
_GC_BEARING_TYPES = (
    int(dtpmsg.MessageType.BEACON),
    int(dtpmsg.MessageType.BEACON_JOIN),
    int(dtpmsg.MessageType.LOG),
)

#: Jump causes, classified from the co-timed EV_RX record.
CAUSE_BEACON = "beacon"
CAUSE_JOIN = "join"
CAUSE_UNKNOWN = "unknown"


@dataclass
class PortTimeline:
    """Per-port series rebuilt from the trace."""

    name: str
    node: str
    peer: str
    #: (time_fs, measured d, alpha), both in counter units (EV_OWD).
    owd: List[Tuple[int, int, int]] = field(default_factory=list)
    #: (time_fs, delta vs reference, applied jump, cause) — EV_JUMP plus
    #: the co-timed EV_RX's message type.
    jumps: List[Tuple[int, int, int, str]] = field(default_factory=list)
    #: Times at which a BEACON was decoded on this port (EV_RX).
    beacon_rx_times: List[int] = field(default_factory=list)
    #: (time_fs, state code) — EV_PORT_STATE transitions.
    states: List[Tuple[int, int]] = field(default_factory=list)

    def measured_d(self) -> Optional[int]:
        """The last OWD measurement (counter units), if any survived."""
        return self.owd[-1][1] if self.owd else None

    def alpha(self) -> Optional[int]:
        return self.owd[-1][2] if self.owd else None

    def beacon_intervals_fs(self) -> List[int]:
        """Gaps between consecutive BEACON receptions."""
        times = self.beacon_rx_times
        return [times[i + 1] - times[i] for i in range(len(times) - 1)]


@dataclass
class NodeTimeline:
    """Per-node global-counter anchors rebuilt from sent beacons."""

    node: str
    #: (time_fs, gc low 53 bits) for every gc-bearing TX on any port.
    anchors: List[Tuple[int, int]] = field(default_factory=list)


class Timeline:
    """The reconstructed run: port and node series plus offset estimation."""

    def __init__(
        self,
        ports: Dict[str, PortTimeline],
        nodes: Dict[str, NodeTimeline],
        increment: int = 1,
        period_fs: int = PHY_10G.period_fs,
    ) -> None:
        self.ports = ports
        self.nodes = nodes
        self.increment = increment
        self.period_fs = period_fs
        # Lazy per-node anchor caches; valid because anchors are frozen
        # once reconstruct_timeline() returns.
        self._anchor_times: Dict[str, List[int]] = {}

    def _node_anchor_times(self, node: str) -> Optional[List[int]]:
        times = self._anchor_times.get(node)
        if times is None:
            timeline = self.nodes.get(node)
            if timeline is None or not timeline.anchors:
                return None
            times = [t for t, _low in timeline.anchors]
            self._anchor_times[node] = times
        return times

    # ------------------------------------------------------------------
    # Offset reconstruction
    # ------------------------------------------------------------------
    def gc_low_at(
        self,
        node: str,
        time_fs: int,
        max_extrapolation_fs: Optional[int] = None,
    ) -> Optional[int]:
        """The node's gc (mod 2^53) at ``time_fs``, from the nearest anchor.

        Extrapolates at the nominal tick rate from the nearest anchor in
        time; returns None when the node has no anchors, or the nearest one
        is farther than ``max_extrapolation_fs`` away.
        """
        times = self._node_anchor_times(node)
        if times is None:
            return None
        anchors = self.nodes[node].anchors
        # Bisect on anchor time for the nearest anchor (ties go left).
        lo = bisect_left(times, time_fs)
        if lo == 0:
            anchor_t, anchor_low = anchors[0]
        elif lo == len(anchors):
            anchor_t, anchor_low = anchors[-1]
        elif time_fs - times[lo - 1] <= times[lo] - time_fs:
            anchor_t, anchor_low = anchors[lo - 1]
        else:
            anchor_t, anchor_low = anchors[lo]
        dt = time_fs - anchor_t
        if max_extrapolation_fs is not None and abs(dt) > max_extrapolation_fs:
            return None
        # Nominal-rate extrapolation, rounding half up (floor division
        # handles negative dt correctly in Python).
        ticks = (dt + self.period_fs // 2) // self.period_fs
        modulus = 1 << dtpmsg.COUNTER_LOW_BITS
        return (anchor_low + ticks * self.increment) % modulus

    def pair_offset_at(
        self,
        a: str,
        b: str,
        time_fs: int,
        max_extrapolation_fs: Optional[int] = None,
    ) -> Optional[int]:
        """Signed gc offset a - b in counter units (mod-2^53 centered)."""
        low_a = self.gc_low_at(a, time_fs, max_extrapolation_fs)
        low_b = self.gc_low_at(b, time_fs, max_extrapolation_fs)
        if low_a is None or low_b is None:
            return None
        modulus = 1 << dtpmsg.COUNTER_LOW_BITS
        half = modulus >> 1
        return (low_a - low_b + half) % modulus - half

    def offset_series(
        self,
        a: str,
        b: str,
        times_fs: List[int],
        max_extrapolation_fs: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """``(t, offset)`` samples, skipping times either node can't cover."""
        series = []
        for t in times_fs:
            offset = self.pair_offset_at(a, b, t, max_extrapolation_fs)
            if offset is not None:
                series.append((t, offset))
        return series

    def sample_times(self, interval_fs: int) -> List[int]:
        """A regular sampling grid spanning every node's anchors."""
        starts = [
            timeline.anchors[0][0]
            for timeline in self.nodes.values()
            if timeline.anchors
        ]
        ends = [
            timeline.anchors[-1][0]
            for timeline in self.nodes.values()
            if timeline.anchors
        ]
        if not starts:
            return []
        start, end = max(starts), min(ends)
        if end < start:
            return []
        return list(range(start, end + 1, interval_fs))

    # ------------------------------------------------------------------
    # Link enumeration
    # ------------------------------------------------------------------
    def links(self) -> List[Tuple[str, str]]:
        """Undirected node pairs with a port in each direction, sorted."""
        seen = set()
        for name in self.ports:
            node, peer = name.split("->", 1)
            if f"{peer}->{node}" in self.ports:
                seen.add(tuple(sorted((node, peer))))
        return sorted(seen)


def classify_jump(index: TraceIndex, record) -> str:
    """beacon / join / unknown, from the EV_RX co-timed with an EV_JUMP."""
    time_fs, _kind, sid, _a, _b = record
    port = index.subject_name(sid)
    for rx in index.at(EV_RX, port, time_fs):
        if rx[3] == int(dtpmsg.MessageType.BEACON_JOIN):
            return CAUSE_JOIN
        if rx[3] == int(dtpmsg.MessageType.BEACON):
            return CAUSE_BEACON
    return CAUSE_UNKNOWN


def reconstruct_timeline(
    index: TraceIndex,
    increment: int = 1,
    period_fs: int = PHY_10G.period_fs,
    parity: bool = False,
) -> Timeline:
    """Rebuild every port and node series from an indexed trace.

    ``increment`` / ``period_fs`` describe the counter the run used (the
    trace itself is unit-agnostic); the defaults match the faultlab
    networks (10 GbE period, +1 per tick).  ``parity`` decodes the 52-bit
    parity payload layout instead of the plain 53-bit one.
    """
    ports: Dict[str, PortTimeline] = {}
    nodes: Dict[str, NodeTimeline] = {}

    def port_timeline(name: str) -> PortTimeline:
        timeline = ports.get(name)
        if timeline is None:
            node, peer = name.split("->", 1)
            timeline = PortTimeline(name=name, node=node, peer=peer)
            ports[name] = timeline
        return timeline

    def node_timeline(node: str) -> NodeTimeline:
        timeline = nodes.get(node)
        if timeline is None:
            timeline = NodeTimeline(node=node)
            nodes[node] = timeline
        return timeline

    for name in index.port_subjects():
        port_timeline(name)
        node_timeline(TraceIndex.port_node(name))

    beacon_code = int(dtpmsg.MessageType.BEACON)
    # One pass per (kind, subject) stream: the name lookup and kind
    # dispatch happen once per stream instead of once per record, and the
    # bulk extends below run at comprehension speed.  Within a stream the
    # records are already time-ordered; node anchors merge several port
    # streams and are re-sorted at the end (co-timed anchors from sibling
    # ports carry the same gc sample, so tie order is immaterial).
    for kind, sid, stream in index.streams():
        name = index.subject_name(sid)
        if "->" not in name:
            continue
        if kind == EV_OWD:
            port_timeline(name).owd.extend(
                (record[0], record[3], record[4]) for record in stream
            )
        elif kind == EV_JUMP:
            jumps = port_timeline(name).jumps
            for record in stream:
                cause = classify_jump(index, record)
                jumps.append((record[0], record[3], record[4], cause))
        elif kind == EV_PORT_STATE:
            port_timeline(name).states.extend(
                (record[0], record[3]) for record in stream
            )
        elif kind == EV_RX:
            port_timeline(name).beacon_rx_times.extend(
                record[0] for record in stream if record[3] == beacon_code
            )
        elif kind == EV_TX:
            anchors = node_timeline(TraceIndex.port_node(name)).anchors
            if parity:
                for record in stream:
                    if record[3] not in _GC_BEARING_TYPES:
                        continue
                    low = record[4]
                    if record[3] == beacon_code:
                        low = dtpmsg.parity_counter_field(low)
                    anchors.append((record[0], low))
            else:
                anchors.extend(
                    (record[0], record[4])
                    for record in stream
                    if record[3] in _GC_BEARING_TYPES
                )

    for timeline in nodes.values():
        timeline.anchors.sort(key=lambda anchor: anchor[0])
    return Timeline(ports, nodes, increment=increment, period_fs=period_fs)
