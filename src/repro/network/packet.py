"""A packet-switched network with real output queueing.

This substrate exists for the baselines: PTP and NTP exchange UDP-like
packets that share switch and NIC egress queues with background (iperf-
style) traffic.  The model is deliberately honest about the three effects
that ruin packet-based time protocols:

* serialization and queueing at every egress port;
* store-and-forward vs cut-through switch latency;
* path asymmetry under load (the two directions see different queues).

Transparent-clock support: a switch can measure each PTP event packet's
residence time (with its own imperfect clock) and accumulate it in the
packet's correction field, exactly as an IEEE 1588 transparent clock does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim import units
from ..sim.engine import Simulator
from .queues import ByteFifo
from .topology import NODE_HOST, Topology, TopologyError

#: Default line rate: 10 Gbps, matching the paper's testbed.
DEFAULT_RATE_BPS = 10_000_000_000

#: Minimal extra bytes a packet occupies on the wire (preamble + IPG).
WIRE_OVERHEAD_BYTES = 20

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A layer-2/3 packet moving through the network."""

    src: str
    dst: str
    size_bytes: int
    kind: str
    payload: dict = field(default_factory=dict)
    created_fs: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Accumulated transparent-clock correction (fs of residence time).
    tc_correction_fs: float = 0.0
    #: Simulation times of NIC-level hardware timestamping.
    hw_tx_fs: Optional[int] = None
    hw_rx_fs: Optional[int] = None
    hops: List[str] = field(default_factory=list)

    @property
    def wire_bytes(self) -> int:
        return self.size_bytes + WIRE_OVERHEAD_BYTES


class Interface:
    """One direction-aware egress port: queue + serializer + cable."""

    def __init__(
        self,
        sim: Simulator,
        owner: "PacketNode",
        peer_name: str,
        delay_fs: int,
        rate_bps: int = DEFAULT_RATE_BPS,
        queue_capacity_bytes: int = 512 * 1024,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.peer_name = peer_name
        self.delay_fs = delay_fs
        self.rate_bps = rate_bps
        self.queue = ByteFifo(queue_capacity_bytes)
        self._peer: Optional["PacketNode"] = None
        self._busy = False
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Optional fluid background-load model (see network.virtualload):
        #: adds the wait a packet would spend behind unmodelled bulk bytes.
        self.virtual_load = None

    def connect(self, peer: "PacketNode") -> None:
        self._peer = peer

    def serialization_fs(self, packet: Packet) -> int:
        return round(packet.wire_bytes * 8 * units.SEC / self.rate_bps)

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission; False on tail drop."""
        if not self.queue.push(packet, packet.wire_bytes):
            return False
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        popped = self.queue.pop()
        if popped is None:
            self._busy = False
            return
        packet, _size = popped
        self._busy = True
        start_fs = self.sim.now
        if self.virtual_load is not None:
            start_fs += self.virtual_load.wait_fs(self.sim.now, packet.wire_bytes)
        ser_fs = self.serialization_fs(packet)
        self.owner.on_tx_start(packet, self, start_fs)
        self.packets_sent += 1
        self.bytes_sent += packet.wire_bytes
        # Last bit leaves at start+ser; first bit arrives after the cable
        # delay; last bit arrives ser later than that.  A cut-through peer
        # is notified as soon as it has the header; everyone else waits for
        # the tail (store-and-forward / host NIC).
        first_bit_arrival = start_fs + self.delay_fs
        last_bit_arrival = start_fs + ser_fs + self.delay_fs
        if self._peer is None:
            raise TopologyError(f"interface to {self.peer_name!r} not connected")
        notify_fs = self._peer.ingress_notify_time(first_bit_arrival, last_bit_arrival)
        self.sim.schedule_at(
            notify_fs, self._deliver, packet, first_bit_arrival, last_bit_arrival
        )
        self.sim.schedule_at(start_fs + ser_fs, self._tx_done)

    def _tx_done(self) -> None:
        self._start_next()

    def _deliver(
        self, packet: Packet, first_bit_arrival: int, last_bit_arrival: int
    ) -> None:
        if self._peer is None:
            raise TopologyError(f"interface to {self.peer_name!r} not connected")
        packet.hops.append(self._peer.name)
        self._peer.receive(packet, self, first_bit_arrival, last_bit_arrival)


class PacketNode:
    """Base class for hosts and switches in the packet network."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}

    def add_interface(self, iface: Interface) -> None:
        self.interfaces[iface.peer_name] = iface

    def on_tx_start(self, packet: Packet, iface: Interface, t_fs: int) -> None:
        """Hook invoked when a packet's first bit leaves this node."""

    def ingress_notify_time(self, first_fs: int, last_fs: int) -> int:
        """When this node learns of an incoming packet.

        Hosts and store-and-forward switches need the tail; a cut-through
        switch overrides this to act on the header.
        """
        return last_fs

    def receive(
        self, packet: Packet, from_iface: Interface, first_fs: int, last_fs: int
    ) -> None:
        raise NotImplementedError


class Host(PacketNode):
    """An end host: NIC egress queue plus protocol dispatch by kind."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._handlers: Dict[str, Callable[[Packet, int, int], None]] = {}
        self._tx_hooks: List[Callable[[Packet, int], None]] = []
        self.packets_received = 0
        self.network: Optional["PacketNetwork"] = None

    def register_handler(
        self, kind: str, handler: Callable[[Packet, int, int], None]
    ) -> None:
        """Register ``handler(packet, first_bit_fs, last_bit_fs)`` for a kind."""
        self._handlers[kind] = handler

    def register_tx_hook(self, hook: Callable[[Packet, int], None]) -> None:
        """Hook called with (packet, t_fs) when our NIC starts transmitting.

        This is how hardware TX timestamping works: the NIC stamps the
        departure, not the moment software queued the packet.
        """
        self._tx_hooks.append(hook)

    def on_tx_start(self, packet: Packet, iface: Interface, t_fs: int) -> None:
        if packet.src == self.name:
            packet.hw_tx_fs = t_fs
            for hook in self._tx_hooks:
                hook(packet, t_fs)

    def send(self, packet: Packet) -> bool:
        """Hand a packet to the NIC (single uplink assumed for hosts)."""
        if len(self.interfaces) != 1:
            raise TopologyError(
                f"host {self.name!r} has {len(self.interfaces)} interfaces; "
                "hosts must have exactly one uplink"
            )
        iface = next(iter(self.interfaces.values()))
        packet.created_fs = self.sim.now
        return iface.send(packet)

    def receive(
        self, packet: Packet, from_iface: Interface, first_fs: int, last_fs: int
    ) -> None:
        self.packets_received += 1
        packet.hw_rx_fs = first_fs
        handler = self._handlers.get(packet.kind)
        if handler is not None:
            handler(packet, first_fs, last_fs)


class Switch(PacketNode):
    """An output-queued switch with static shortest-path forwarding.

    Transparent-clock (TC) support comes in two flavours:

    * ``TC_IDEAL`` — the egress timestamp is taken when the packet's first
      bit actually leaves, so the correction covers *all* residence time
      including egress queueing.  A correct TC like this keeps PTP accurate
      under congestion (paper Section 2.4.2's caveat).
    * ``TC_ENQUEUE_STAMPED`` — the egress timestamp is taken when the packet
      is handed to the egress queue, so queueing behind bulk traffic is
      **not** corrected.  This reproduces the misbehaving-under-congestion
      TCs the paper observed (and [Zarick et al. 2011] measured), and is
      what the Figure 6e/6f experiments use.
    """

    MODE_STORE_FORWARD = "store_and_forward"
    MODE_CUT_THROUGH = "cut_through"

    TC_IDEAL = "ideal"
    TC_ENQUEUE_STAMPED = "enqueue_stamped"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mode: str = MODE_STORE_FORWARD,
        cut_through_latency_fs: int = 300 * units.NS,
        transparent_clock: bool = False,
        tc_mode: str = TC_ENQUEUE_STAMPED,
        tc_timestamp_granularity_fs: int = 8 * units.NS,
    ) -> None:
        super().__init__(sim, name)
        if mode not in (self.MODE_STORE_FORWARD, self.MODE_CUT_THROUGH):
            raise ValueError(f"unknown switch mode {mode!r}")
        if tc_mode not in (self.TC_IDEAL, self.TC_ENQUEUE_STAMPED):
            raise ValueError(f"unknown transparent-clock mode {tc_mode!r}")
        self.mode = mode
        self.cut_through_latency_fs = cut_through_latency_fs
        self.transparent_clock = transparent_clock
        self.tc_mode = tc_mode
        self.tc_timestamp_granularity_fs = tc_timestamp_granularity_fs
        self.routes: Dict[str, str] = {}  # destination -> next-hop node name
        self._ingress_fs: Dict[int, int] = {}
        self._enqueue_fs: Dict[int, int] = {}
        self.forwarded = 0

    def ingress_notify_time(self, first_fs: int, last_fs: int) -> int:
        if self.mode == self.MODE_CUT_THROUGH:
            # The forwarding decision needs only the header; egress may
            # start while the tail is still arriving (rates are equal, so
            # egress can never outrun ingress).
            return min(last_fs, first_fs + self.cut_through_latency_fs)
        return last_fs

    def receive(
        self, packet: Packet, from_iface: Interface, first_fs: int, last_fs: int
    ) -> None:
        next_hop = self.routes.get(packet.dst)
        if next_hop is None:
            return  # no route: drop silently (counted by absence)
        out = self.interfaces[next_hop]
        if self.transparent_clock:
            self._ingress_fs[packet.packet_id] = first_fs
            self._enqueue_fs[packet.packet_id] = self.sim.now
        self.forwarded += 1
        out.send(packet)

    def on_tx_start(self, packet: Packet, iface: Interface, t_fs: int) -> None:
        if not self.transparent_clock:
            return
        ingress = self._ingress_fs.pop(packet.packet_id, None)
        enqueue = self._enqueue_fs.pop(packet.packet_id, None)
        if ingress is None or packet.kind not in ("ptp_sync", "ptp_delay_req"):
            return
        if self.tc_mode == self.TC_IDEAL:
            egress_stamp = t_fs
        else:
            # Enqueue-stamped TC: blind to the wait in its own egress queue.
            egress_stamp = enqueue if enqueue is not None else t_fs
        residence = max(0, egress_stamp - ingress)
        # The TC measures residence with its own free-running clock at a
        # finite timestamp granularity; quantization is the residual error.
        granularity = self.tc_timestamp_granularity_fs
        measured = (residence // granularity) * granularity
        packet.tc_correction_fs += measured


class PacketNetwork:
    """Instantiates hosts, switches, routing and cables from a Topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rate_bps: int = DEFAULT_RATE_BPS,
        switch_mode: str = Switch.MODE_STORE_FORWARD,
        transparent_clocks: bool = False,
        tc_mode: str = Switch.TC_ENQUEUE_STAMPED,
        queue_capacity_bytes: int = 512 * 1024,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.rate_bps = rate_bps
        self.nodes: Dict[str, PacketNode] = {}
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}

        for node in topology.nodes.values():
            if node.kind == NODE_HOST:
                host = Host(sim, node.name)
                host.network = self
                self.nodes[node.name] = host
                self.hosts[node.name] = host
            else:
                switch = Switch(
                    sim,
                    node.name,
                    mode=switch_mode,
                    transparent_clock=transparent_clocks,
                    tc_mode=tc_mode,
                )
                self.nodes[node.name] = switch
                self.switches[node.name] = switch

        for edge in topology.edges:
            node_a = self.nodes[edge.a]
            node_b = self.nodes[edge.b]
            iface_ab = Interface(
                sim, node_a, edge.b, edge.cable.forward_delay_fs(), rate_bps,
                queue_capacity_bytes,
            )
            iface_ba = Interface(
                sim, node_b, edge.a, edge.cable.reverse_delay_fs(), rate_bps,
                queue_capacity_bytes,
            )
            iface_ab.connect(node_b)
            iface_ba.connect(node_a)
            node_a.add_interface(iface_ab)
            node_b.add_interface(iface_ba)

        self._build_routes()

    def _build_routes(self) -> None:
        """Static next-hop routing via BFS from every destination."""
        for dst in self.topology.nodes:
            # BFS tree rooted at dst; each node's parent is its next hop.
            parents = {dst: dst}
            frontier = [dst]
            while frontier:
                next_frontier = []
                for node in frontier:
                    for peer in self.topology.neighbors(node):
                        if peer not in parents:
                            parents[peer] = node
                            next_frontier.append(peer)
                frontier = next_frontier
            for name, node in self.nodes.items():
                if isinstance(node, Switch) and name != dst and name in parents:
                    node.routes[dst] = parents[name]

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"{name!r} is not a host") from None

    def send(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        kind: str,
        payload: Optional[dict] = None,
    ) -> Packet:
        """Create and transmit a packet from host ``src`` to host ``dst``."""
        packet = Packet(
            src=src, dst=dst, size_bytes=size_bytes, kind=kind,
            payload=payload or {},
        )
        self.host(src).send(packet)
        return packet
