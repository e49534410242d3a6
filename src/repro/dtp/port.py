"""A DTP-enabled network port (paper Algorithm 1, Sections 3.2 and 4.2).

Each port owns a *local counter* ``lc`` clocked by its device's oscillator.
The FSM:

* **T0** — link up: ``lc <- gc``; send ``(INIT, lc)``.
* **T1** — on ``(INIT, c)``: reply ``(INIT_ACK, c)``.
* **T2** — on ``(INIT_ACK, c)``: ``d <- (lc - c - alpha) / 2``; the port is
  synchronized and sends a ``BEACON_JOIN`` so a newly joining device (or a
  healed partition) can make a large adjustment.
* **T3** — every ``beacon_interval`` ticks: send ``(BEACON, gc)``.
* **T4** — on ``(BEACON, c)``: ``lc <- max(lc, c + d)``.

Messages ride idle blocks: a transmission waits for the traffic model's
next ``/E/`` slot, crosses the wire after the deterministic TX pipeline and
propagation delay, is sampled into the receiver's clock domain through the
CDC synchronization FIFO (the 0-1 tick random delay), then traverses the RX
pipeline before the control logic reacts.  Fault handling follows
Section 3.2: counters off by more than eight are rejected, an optional
parity bit protects the LSBs, and a peer that forces too many jumps in a
window is declared faulty and ignored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..clocks.clock import TickClock
from ..phy.ber import BitErrorInjector
from ..phy.blocks import (
    IDLE_PAYLOAD_MASK,
    IDLE_WIRE_BASE,
    IDLE_WIRE_HEADER_MASK,
)
from ..phy.cdc import SyncFifo
from ..phy.pipeline import PhyLatencyConfig
from ..ethernet.traffic import TrafficModel
from ..sim.engine import Event, Simulator
from ..telemetry.events import (
    EV_JUMP,
    EV_LOST,
    EV_OWD,
    EV_PEER_FAULT,
    EV_PORT_STATE,
    EV_REJECT,
    EV_RX,
    EV_TX,
    EV_TX_BLOCKED,
    LOST_HEADER,
    LOST_WIRE,
    REJECT_PARITY,
    REJECT_RANGE,
    REJECT_UNDECODABLE,
    STATE_DOWN,
    STATE_INIT,
    STATE_SYNCHRONIZED,
)
from ..telemetry.registry import Counter as _StatCounter
from . import messages as dtpmsg
from .device import DtpDevice

#: Paper Section 3.3: alpha = 3 keeps the measured OWD at or below the true
#: delay so the global counter never runs faster than the fastest clock.
DEFAULT_ALPHA = 3

#: Paper Section 4.4: a saturated MTU link still yields one idle block per
#: ~200 cycles, so 200 ticks is the default (and worst-case-MTU) interval.
DEFAULT_BEACON_INTERVAL_TICKS = 200


class PortState(enum.Enum):
    DOWN = "down"
    INIT = "init"
    SYNCHRONIZED = "synchronized"


#: ``MessageType.name`` goes through enum's DynamicClassAttribute
#: descriptor on every access; the stats cells are keyed by it twice per
#: message, so the names are precomputed.
_MTYPE_NAME = {mtype: mtype.name for mtype in dtpmsg.MessageType}
_MTYPE_NAMES = frozenset(_MTYPE_NAME.values())
_INIT, _INIT_ACK, _BEACON, _JOIN, _MSB, _LOG = dtpmsg.MessageType
_LOW_MASK = dtpmsg.COUNTER_LOW_MASK
_HALF = 1 << (dtpmsg.COUNTER_LOW_BITS - 1)


@dataclass
class DtpPortConfig:
    """Tunables of one DTP port (defaults reproduce the paper's prototype)."""

    alpha: int = DEFAULT_ALPHA
    beacon_interval_ticks: int = DEFAULT_BEACON_INTERVAL_TICKS
    #: Resend INIT if no INIT_ACK arrives within this many ticks.
    init_retry_ticks: int = 10_000
    #: Send a BEACON_MSB once per this many beacons (Section 4.4).
    msb_interval_beacons: int = 1_000
    #: Section 3.2: ignore BEACONs whose counter is off by more than this.
    reject_threshold_ticks: int = 8
    #: Enable the parity bit over the counter LSBs.
    parity: bool = False
    #: Fault detection: examined every ``fault_window_beacons`` received
    #: beacons; more than ``max_jumps_per_window`` adjustments or more than
    #: ``max_rejects_per_window`` out-of-range counters marks the peer
    #: faulty.  ``None`` disables the corresponding check.
    fault_window_beacons: int = 1_000
    max_jumps_per_window: Optional[int] = None
    max_rejects_per_window: Optional[int] = 20
    latency: PhyLatencyConfig = field(default_factory=PhyLatencyConfig)


#: Rejection-reason label values for ``dtp_rejected_total``.
_REJECT_REASONS = ("out_of_range", "parity", "undecodable")


class _Cells(dict):
    """Counter cells by name, each created when it is first indexed: a
    port counts a few of its message types and most never reject, and a
    fabric has a thousand ports."""

    __slots__ = ("_names",)

    def __init__(self, names) -> None:
        super().__init__()
        self._names = names

    def __missing__(self, name: str) -> _StatCounter:
        if name not in self._names:
            raise KeyError(name)
        cell = self[name] = _StatCounter()
        return cell


class PortStats:
    """Counters for observability and the fault-handling tests.

    Every counter is a telemetry ``Counter`` cell.  A standalone port owns
    private cells (the per-type and per-reason ones from their first use);
    when the port is built with a
    :class:`repro.telemetry.Telemetry` object, :meth:`bind_registry`
    re-homes the cells onto its :class:`~repro.telemetry.MetricsRegistry`
    so the registry is the single source of truth (Prometheus exposition,
    snapshots, digests) while this class stays a thin read-only view —
    ``stats.jumps``, ``stats.sent["BEACON"]`` etc.; writers (the port, the
    batched coordinator) increment the cells themselves.

    The ``*_in_window`` fields are transient Section 3.2 fault-filter
    state, not metrics; they stay plain ints.
    """

    __slots__ = (
        "_sent",
        "_received",
        "_jumps",
        "_rejected",
        "_lost_on_wire",
        "beacons_in_window",
        "jumps_in_window",
        "rejects_in_window",
    )

    def __init__(self) -> None:
        self._sent: Dict[str, _StatCounter] = _Cells(_MTYPE_NAMES)
        self._received: Dict[str, _StatCounter] = _Cells(_MTYPE_NAMES)
        self._jumps = _StatCounter()
        self._rejected: Dict[str, _StatCounter] = _Cells(_REJECT_REASONS)
        self._lost_on_wire = _StatCounter()
        self.beacons_in_window = 0
        self.jumps_in_window = 0
        self.rejects_in_window = 0

    def bind_registry(self, registry, port: str) -> None:
        """Re-home every cell onto ``registry`` (existing values carry over)."""
        sent = registry.counter(
            "dtp_messages_sent_total",
            "DTP messages handed to the wire, by port and message type",
            labelnames=("port", "type"),
        )
        received = registry.counter(
            "dtp_messages_received_total",
            "DTP messages decoded by the receiver, by port and message type",
            labelnames=("port", "type"),
        )
        for name in _MTYPE_NAME.values():
            cell = sent.labels(port=port, type=name)
            cell.value += self._sent[name].value
            self._sent[name] = cell
            cell = received.labels(port=port, type=name)
            cell.value += self._received[name].value
            self._received[name] = cell
        jumps = registry.counter(
            "dtp_counter_jumps_total",
            "local-counter adjustments from lc <- max(lc, remote + d)",
            labelnames=("port",),
        ).labels(port=port)
        jumps.value += self._jumps.value
        self._jumps = jumps
        rejected = registry.counter(
            "dtp_rejected_total",
            "received counters rejected by the Section 3.2 filters",
            labelnames=("port", "reason"),
        )
        for reason in _REJECT_REASONS:
            cell = rejected.labels(port=port, reason=reason)
            cell.value += self._rejected[reason].value
            self._rejected[reason] = cell
        lost = registry.counter(
            "dtp_lost_on_wire_total",
            "blocks destroyed on the wire (drop or corrupted header)",
            labelnames=("port",),
        ).labels(port=port)
        lost.value += self._lost_on_wire.value
        self._lost_on_wire = lost

    # -- thin read-only view: the original attribute API ---------------
    @property
    def sent(self) -> Dict[str, int]:
        """Messages sent by type name (types with zero sends omitted)."""
        return {n: c.value for n, c in self._sent.items() if c.value}

    @property
    def received(self) -> Dict[str, int]:
        """Messages received by type name (types with zero receives omitted)."""
        return {n: c.value for n, c in self._received.items() if c.value}

    @property
    def jumps(self) -> int:
        return self._jumps.value

    @property
    def rejected_out_of_range(self) -> int:
        return self._rejected["out_of_range"].value


class DtpPort:
    """One side of a DTP link."""

    def __init__(
        self,
        device: DtpDevice,
        name: str,
        config: Optional[DtpPortConfig] = None,
        traffic: Optional[TrafficModel] = None,
        ber: Optional[BitErrorInjector] = None,
        telemetry=None,
    ) -> None:
        self.device = device
        self.sim: Simulator = device.sim
        self.name = name
        self.config = config or DtpPortConfig()
        self.osc = device.oscillator
        self.lc = TickClock(
            self.osc, increment=device.counter_increment, name=f"{name}.lc"
        )
        #: Slot source; None is an idle link (every block is idle).
        self.traffic = traffic
        self.ber = ber
        self.fifo = SyncFifo(device.streams.stream(f"cdc/{name}"))
        self.state = PortState.DOWN
        self.peer: Optional["DtpPort"] = None
        #: One-way wire propagation delay from this port's TX to the peer.
        self.wire_delay_fs = 0
        #: Measured one-way delay in counter units (T2); None until INIT done.
        self.d: Optional[int] = None
        self.peer_faulty = False
        self.stats = PortStats()
        #: Trace hook (``repro.telemetry.TraceRecorder`` or None).  The
        #: disabled state is the ``None`` reference: hot paths pay one
        #: ``is not None`` test per would-be record and nothing else.
        self._tracer = telemetry.tracer if telemetry is not None else None
        #: Interned trace subject id (interned at construction so the
        #: subject table order follows deterministic port creation order).
        self._sid = -1 if self._tracer is None else self._tracer.subject_id(name)
        if telemetry is not None:
            self.stats.bind_registry(telemetry.registry, name)
        #: Remote counter high bits learned from BEACON_MSB.
        self.remote_msb: Optional[int] = None
        self.on_log: Optional[Callable[[int, int, int], None]] = None
        #: Fault-injection gate: called with (message type, now) at the TX
        #: instant; returning False drops the message before it hits the
        #: wire (see ``repro.faultlab``).  None (the default) transmits
        #: everything and costs nothing on the hot path.
        self.tx_allow: Optional[
            Callable[[dtpmsg.MessageType, int], bool]
        ] = None
        self._beacons_since_msb = 0
        self._last_tx_slot = -1
        #: Batched backend hook (``repro.fastpath.FastpathCoordinator`` or
        #: None).  Scalar runs pay one ``is not None`` test per beacon
        #: interval and per link_down, nothing else.
        self._fastpath = None
        self._beacon_event: Optional[Event] = None
        self._init_retry_event: Optional[Event] = None
        #: Pipeline depths, read once: the latency config is immutable
        #: after port construction (PhyLatencyConfig is a plain dataclass
        #: that nothing mutates post-init).
        self._tx_pipeline_ticks = self.config.latency.tx_pipeline_ticks
        self._rx_pipeline_ticks = self.config.latency.rx_pipeline_ticks
        #: Section 3.2 reject threshold (counter units), fault window and
        #: MSB cadence, likewise fixed at construction.
        self._reject_threshold = (
            self.config.reject_threshold_ticks * device.counter_increment
        )
        self._fault_window = self.config.fault_window_beacons
        self._msb_every = self.config.msb_interval_beacons
        #: Per-message dispatch table; a handler takes (payload, now, tick).
        self._handlers = {
            _INIT: self._on_init,
            _INIT_ACK: self._on_init_ack,
            _BEACON: self._on_beacon,
            _JOIN: self._on_join,
            _MSB: self._on_msb,
            _LOG: self._on_log_message,
        }
        device.add_port(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, peer: "DtpPort", forward_delay_fs: int, reverse_delay_fs: int) -> None:
        """Attach this port to ``peer`` over a cable."""
        self.peer = peer
        peer.peer = self
        self.wire_delay_fs = forward_delay_fs
        peer.wire_delay_fs = reverse_delay_fs

    def can_transmit(self) -> bool:
        return self.state is not PortState.DOWN and self.peer is not None

    def leave_fastpath(self) -> None:
        """Demote this port's batched send direction, if any: called just
        before ``ber``, ``tx_allow`` or ``_tx_counter`` is patched."""
        if self._fastpath is not None:
            self._fastpath.demote_port(self)

    @property
    def synchronized(self) -> bool:
        return self.state is PortState.SYNCHRONIZED

    # ------------------------------------------------------------------
    # Link bring-up (T0)
    # ------------------------------------------------------------------
    def link_up(self) -> None:
        """The link to the peer is established: run Transition T0."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name!r} has no peer")
        now = self.sim.now
        if self.device.powered_on_fs is None:
            self.device.powered_on_fs = now
        self.state = PortState.INIT
        if self._tracer is not None:
            self._tracer.record(now, EV_PORT_STATE, self._sid, STATE_INIT)
        self.lc.set_counter(now, self.device.global_counter(now))
        self._send_init()

    def link_down(self) -> None:
        """Stop all port activity (cable pulled / peer died)."""
        fastpath = self._fastpath
        if fastpath is not None:
            # Demote first: in-flight virtual events become real heap
            # events (including a restored beacon timeout) so the cancels
            # below and the scalar DOWN checks see the scalar picture.
            fastpath.on_link_down(self)
        self.state = PortState.DOWN
        if self._tracer is not None:
            self._tracer.record(self.sim._now, EV_PORT_STATE, self._sid, STATE_DOWN)
        self.d = None
        self.sim.cancel(self._beacon_event)
        self.sim.cancel(self._init_retry_event)
        self._beacon_event = None
        self._init_retry_event = None

    def _send_init(self) -> None:
        if self.state is not PortState.INIT:
            return
        self._schedule_transmit(_INIT, self.osc.ticks_at(self.sim._now))
        retry_fs = self.config.init_retry_ticks * self.osc.nominal_period_fs
        self.sim.cancel(self._init_retry_event)
        self._init_retry_event = self.sim.schedule(retry_fs, self._send_init)

    # ------------------------------------------------------------------
    # Transmission machinery
    # ------------------------------------------------------------------
    def _tx_slot(self, tick: int, beacon: bool = False) -> int:
        """The ``/E/`` slot arbiter: the first idle block after ``tick``
        and the last slot handed out.  A T3 ``beacon`` also counts the
        BEACON_MSB cadence: when one is due the slot comes back negated
        (no tuple on the hot path), and the MSB asks next."""
        last = self._last_tx_slot
        slot = tick + 1 if tick > last else last + 1
        traffic = self.traffic
        if traffic is not None:
            slot = traffic.next_idle_tick(slot)
        self._last_tx_slot = slot
        if beacon:
            b = self._beacons_since_msb + 1
            if b >= self._msb_every:
                self._beacons_since_msb = 0
                return -slot
            self._beacons_since_msb = b
        return slot

    def _schedule_transmit(
        self, mtype: dtpmsg.MessageType, tick: int, echo: int = 0
    ) -> None:
        """Queue a message on the slot the arbiter hands out at ``tick``."""
        self._post_transmit(mtype, self._tx_slot(tick), echo)

    def _post_transmit(
        self, mtype: dtpmsg.MessageType, slot: int, echo: int = 0
    ) -> None:
        """Fire on ``slot``, carrying it (and ``echo``, an INIT_ACK's)."""
        self.sim.post_at(
            self.osc.time_of_tick(slot), self._transmit_now, mtype, slot, echo
        )

    def _transmit_now(self, mtype: dtpmsg.MessageType, slot: int, echo: int) -> None:
        if self.state is PortState.DOWN or self.peer is None:
            return
        # ``sim._now``, not the ``now`` property, whose descriptor shows in
        # profiles at one call per message (here, in ``_arrive``, ``_process``).
        now = self.sim._now
        if self.tx_allow is not None and not self.tx_allow(mtype, now):
            if self._tracer is not None:
                self._tracer.record(now, EV_TX_BLOCKED, self._sid, mtype)
            return
        payload = self._payload_at(mtype, now, slot, echo)
        bits56 = dtpmsg.SHIFTED_TYPE[mtype] | payload
        self.stats._sent[_MTYPE_NAME[mtype]].value += 1
        if self._tracer is not None:
            self._tracer.record(now, EV_TX, self._sid, mtype, payload)
        # The TX pipeline from the slot this event fires on.  A slot is
        # >= 1 and pipeline depths are non-negative.
        arrival_fs = (
            self.osc.time_of_tick(slot + self._tx_pipeline_ticks) + self.wire_delay_fs
        )
        # The message crosses the wire as a genuine /E/ control block; bit
        # errors strike the full 66 bits, so a flip in the sync header or
        # block-type octet destroys the block (the receiver sees a code
        # violation), while flips in the idle characters corrupt the
        # counter and must be caught by the Section 3.2 filters.
        wire_bits = IDLE_WIRE_BASE | bits56
        if self.ber is not None:
            wire_bits = self.ber.corrupt(wire_bits, 66)
        self.sim.post_at(arrival_fs, self.peer._arrive, wire_bits)

    def _payload_at(self, mtype, now: int, slot: int, echo: int) -> int:
        """What ``mtype`` carries on ``slot``: a plain clock is read there,
        anything else (as ``fastpath.eligibility`` sorts them) at ``now``."""
        if mtype is _INIT_ACK:
            return echo
        if mtype is _INIT:
            lc = self.lc
            if type(lc) is TickClock:
                return (lc.increment * slot + lc.offset) & _LOW_MASK
            return lc.counter_at(now) & _LOW_MASK
        gc = self.device.gc
        if (  # two-faced patches ``_tx_counter`` per instance
            type(gc) is TickClock
            and type(self.device) is DtpDevice
            and "_tx_counter" not in self.__dict__
        ):
            counter = gc.increment * slot + gc.offset
        else:
            counter = self._tx_counter(now)
        if mtype is _MSB:
            return dtpmsg.counter_high(counter)
        if mtype is _BEACON and self.config.parity:
            return dtpmsg.payload_with_parity(counter)
        return counter & _LOW_MASK

    # ------------------------------------------------------------------
    # Reception machinery
    # ------------------------------------------------------------------
    def _arrive(self, wire_bits: Optional[int]) -> None:
        """First bit of a DTP-bearing 66-bit block reaches our RX."""
        if self.state is PortState.DOWN:
            return
        if wire_bits is None:
            self.stats._lost_on_wire.value += 1
            if self._tracer is not None:
                self._tracer.record(self.sim._now, EV_LOST, self._sid, LOST_WIRE)
            return
        if wire_bits & IDLE_WIRE_HEADER_MASK != IDLE_WIRE_BASE:
            # Sync header or block type corrupted: the PCS drops the block.
            self.stats._lost_on_wire.value += 1
            if self._tracer is not None:
                self._tracer.record(self.sim._now, EV_LOST, self._sid, LOST_HEADER)
            return
        bits56 = wire_bits & IDLE_PAYLOAD_MASK
        # The next local edge, the CDC settling, the RX pipeline: advancing
        # an edge is ``index + 1``, so the chain is one index computation.
        osc = self.osc
        n = (
            self.fifo.settle(osc.edge_index_after(self.sim._now))
            + self._rx_pipeline_ticks
        )
        self.sim.post_at(osc.time_of_tick(n), self._process, bits56, n)

    def _process(self, bits56: int, tick: int) -> None:
        if self.state is PortState.DOWN:
            return
        # Decode: 56 bits always index the type table.
        mtype = dtpmsg.TYPE_TABLE[bits56 >> dtpmsg.PAYLOAD_BITS]
        if mtype is None:
            self.stats._rejected["undecodable"].value += 1
            if self._tracer is not None:
                self._tracer.record(
                    self.sim._now, EV_REJECT, self._sid, REJECT_UNDECODABLE
                )
            return
        payload = bits56 & dtpmsg.PAYLOAD_MASK
        self.stats._received[_MTYPE_NAME[mtype]].value += 1
        if self._tracer is not None:
            self._tracer.record(self.sim._now, EV_RX, self._sid, mtype, payload)
        self._handlers[mtype](payload, self.sim._now, tick)

    # ------------------------------------------------------------------
    # Protocol transitions
    # ------------------------------------------------------------------
    def _on_init(self, payload: int, now: int, tick: int) -> None:
        """T1: echo the peer's counter back in an INIT_ACK."""
        self._schedule_transmit(_INIT_ACK, tick, payload)

    def _on_init_ack(self, payload: int, now: int, tick: int) -> None:
        """T2: measure the one-way delay and enter the BEACON phase."""
        if self.state is not PortState.INIT:
            return  # duplicate ACK after a retry
        lc_now = self.lc.counter_at(now)
        echoed = dtpmsg.reconstruct_counter(payload, lc_now)
        alpha = self.config.alpha * self.device.counter_increment
        self.d = max(0, (lc_now - echoed - alpha) // 2)
        self.state = PortState.SYNCHRONIZED
        if self._tracer is not None:
            self._tracer.record(now, EV_OWD, self._sid, self.d, alpha)
            self._tracer.record(now, EV_PORT_STATE, self._sid, STATE_SYNCHRONIZED)
        self.sim.cancel(self._init_retry_event)
        self._init_retry_event = None
        # Network dynamics: agree on the maximum counter across the link.
        self.send_join(tick)
        self._schedule_beacon_timeout(tick)

    def _schedule_beacon_timeout(self, tick: int) -> None:
        """Schedule the beacon timeout one interval after ``tick``; the
        timeout fires on that tick's edge and carries its index."""
        n = tick + self.config.beacon_interval_ticks
        self._beacon_event = self.sim.schedule_at(
            self.osc.time_of_tick(n), self._beacon_timeout, n
        )

    def _beacon_timeout(self, tick: int) -> None:
        """T3 at ``tick``: send (BEACON, gc); occasionally a BEACON_MSB too."""
        if self.state is not PortState.SYNCHRONIZED:
            return
        fastpath = self._fastpath
        if fastpath is not None and fastpath.on_beacon_timeout(self, tick):
            return  # direction promoted: the coordinator owns this beacon
        slot = self._tx_slot(tick, True)
        if slot > 0:
            self._post_transmit(_BEACON, slot)
        else:
            self._post_transmit(_BEACON, -slot)
            self._schedule_transmit(_MSB, tick)
        self._schedule_beacon_timeout(tick)

    def _tx_counter(self, t_fs: int) -> int:
        """The counter value beacons carry: the device's global counter."""
        return self.device.global_counter(t_fs)

    def _on_beacon(self, payload: int, now: int, tick: int) -> None:
        """T4: ``lc <- max(lc, c + d)`` with Section 3.2 fault filtering."""
        if self.state is not PortState.SYNCHRONIZED or self.d is None:
            return
        if self.peer_faulty:
            return
        lc = self.lc
        plain = type(lc) is TickClock and type(self.device.gc) is TickClock
        if plain and not self.config.parity:
            self._apply_beacon(payload, now, tick)
            return
        # Parity narrows the counter field; a subclass (a spanning-tree
        # follower that can stall, an inert clock) reads a second counter
        # or decides a jump its own way.
        lc_now = lc.counter_at(now)
        if self.config.parity:
            if not dtpmsg.check_parity(payload):
                self.stats._rejected["parity"].value += 1
                if self._tracer is not None:
                    self._tracer.record(now, EV_REJECT, self._sid, REJECT_PARITY)
                return
            low = dtpmsg.parity_counter_field(payload)
            remote = dtpmsg.reconstruct_counter(
                low, lc_now, bits=dtpmsg.PARITY_PAYLOAD_BITS
            )
        else:
            remote = dtpmsg.reconstruct_counter(payload, lc_now)
        candidate = remote + self.d
        # Plausibility is judged against the free-running counter: a
        # stalled follower (spanning-tree mode) legitimately lags its
        # beacons, and must not reject its own catch-up.
        delta = candidate - lc.reference_counter_at(now)
        stats = self.stats
        stats.beacons_in_window += 1
        if delta > self._reject_threshold or delta < -self._reject_threshold:
            self._reject_range(now, delta)
        elif lc.adjust_to_max(now, candidate):
            stats._jumps.value += 1
            stats.jumps_in_window += 1
            if self._tracer is not None:
                self._tracer.record(
                    now, EV_JUMP, self._sid, delta, candidate - lc_now
                )
            self.device.on_local_jump(self, now)
        if stats.beacons_in_window >= self._fault_window:
            self._roll_fault_window(now)

    def _apply_beacon(self, payload: int, now: int, tick: int) -> bool:
        """T4 and Algorithm 2 on plain clocks at RX edge ``tick``, for both
        backends (the callers guard): unless Section 3.2 rejects ``c``,
        ``lc <- max(lc, c + d)``, ``gc <- max(gc, lc)``.  True = the fault
        window tripped."""
        lc = self.lc
        lc_now = lc.increment * tick + lc.offset
        # reconstruct_counter, inlined; delta = candidate - lc_now.
        delta = ((payload - lc_now + _HALF) & _LOW_MASK) - _HALF + self.d
        stats = self.stats
        beacons = stats.beacons_in_window + 1
        stats.beacons_in_window = beacons
        # Most beacons move nothing: test that first.
        if delta <= 0:
            if delta < -self._reject_threshold:
                self._reject_range(now, delta)
        elif delta > self._reject_threshold:
            self._reject_range(now, delta)
        else:
            lc.offset += delta
            lc.adjustments += 1
            stats._jumps.value += 1
            stats.jumps_in_window += 1
            if self._tracer is not None:
                self._tracer.record(now, EV_JUMP, self._sid, delta, delta)
            candidate = lc_now + delta
            gc = self.device.gc
            gc_now = gc.increment * tick + gc.offset
            if candidate > gc_now:
                gc.offset += candidate - gc_now
                gc.adjustments += 1
        if beacons >= self._fault_window:
            return self._roll_fault_window(now)
        return False

    def _reject_range(self, now: int, delta: int) -> None:
        """Section 3.2: a counter off by more than the threshold is dropped."""
        stats = self.stats
        stats._rejected["out_of_range"].value += 1
        stats.rejects_in_window += 1
        if self._tracer is not None:
            self._tracer.record(now, EV_REJECT, self._sid, REJECT_RANGE, delta)

    def _roll_fault_window(self, now: int) -> bool:
        """End a full Section 3.2 fault window: too many jumps or rejects
        mark the peer faulty (and demote its batched direction to the
        scalar path, which ignores it).  True = tripped."""
        cfg = self.config
        stats = self.stats
        jumps = stats.jumps_in_window
        rejects = stats.rejects_in_window
        stats.beacons_in_window = 0
        stats.jumps_in_window = 0
        stats.rejects_in_window = 0
        too_many_jumps = (
            cfg.max_jumps_per_window is not None and jumps > cfg.max_jumps_per_window
        )
        too_many_rejects = (
            cfg.max_rejects_per_window is not None
            and rejects > cfg.max_rejects_per_window
        )
        if not (too_many_jumps or too_many_rejects):
            return False
        self.peer_faulty = True
        if self._fastpath is not None:
            self._fastpath.demote_port(self.peer)
        if self._tracer is not None:
            self._tracer.record(now, EV_PEER_FAULT, self._sid, jumps, rejects)
        return True

    def send_join(self, tick: int) -> None:
        """Send a BEACON_JOIN carrying our global counter; ``tick`` is the
        current tick, which the caller holds."""
        if not self.can_transmit():
            return
        self._schedule_transmit(_JOIN, tick)

    def _on_join(self, payload: int, now: int, tick: int) -> None:
        """BEACON_JOIN: allow an arbitrarily large forward adjustment."""
        if self.d is None:
            return  # our own INIT exchange will reconcile counters shortly
        lc_now = self.lc.counter_at(now)
        remote = dtpmsg.reconstruct_counter(payload, lc_now)
        candidate = remote + self.d
        if self.lc.adjust_to_max(now, candidate):
            self.stats._jumps.value += 1
            if self._tracer is not None:
                self._tracer.record(
                    now,
                    EV_JUMP,
                    self._sid,
                    candidate - self.lc.reference_counter_at(now),
                    candidate - lc_now,
                )
            self.device.on_join(self, now, tick)

    def _on_msb(self, payload: int, now: int, tick: int) -> None:
        self.remote_msb = payload

    # ------------------------------------------------------------------
    # Measurement channel (paper Section 6.2)
    # ------------------------------------------------------------------
    def send_log(self) -> None:
        """Inject a log record stamped with our current global counter."""
        self._schedule_transmit(_LOG, self.osc.ticks_at(self.sim._now))

    def _on_log_message(self, payload: int, now: int, tick: int) -> None:
        """Compute offset_hw = t2 - t1 - OWD, as the paper's logger does."""
        if self.on_log is None or self.d is None:
            return
        t2 = self.device.global_counter(now)
        t1 = dtpmsg.reconstruct_counter(payload, t2)
        offset = t2 - t1 - self.d
        self.on_log(offset, t2, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DtpPort(name={self.name!r}, state={self.state.value}, "
            f"d={self.d}, jumps={self.stats.jumps})"
        )
