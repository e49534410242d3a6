"""Verbatim copies of the seed (pre-optimization) hot-path code.

The perf benchmark measures the optimized simulation core against the
implementation this repo seeded with, *in the same process on the same
machine*, so the reported speedup is a property of the code, not of the
host.  Everything here is a faithful copy of the seed revision:

* ``SeedSimulator`` / ``SeedEvent`` — the Event-object heap engine whose
  ``Event.__lt__`` dominated profiles (~1.46 M calls per 2 ms Fig. 6a run);
* ``seed_oscillator_*`` — the always-bisect segment lookup without the
  last-hit cache or the ``ticks_at`` memo;
* ``seed_schedule_beacon_timeout`` / ``seed_beacon_timeout`` — the beacon
  cycle that reads its tick back with ``ticks_at(now)``;
* ``seed_schedule_transmit`` / ``seed_transmit_now`` / ``seed_arrive`` /
  ``seed_process`` — the DTP port fast path with a payload closure per
  message (``seed_payload_builder``, read from the time of the send),
  per-message ``SeedBlock66`` / ``SeedDtpMessage`` object round-trips and a
  dispatch dict rebuilt per received message, counting its messages
  through ``seed_count_sent`` / ``seed_count_received``;
* ``seed_reconstruct_counter`` — the ``min(key=lambda...)`` form;
* ``seed_tx_exit_time`` / ``seed_rx_process_time`` — the seed's PHY
  pipeline helpers, each reading its tick back with ``ticks_at`` and
  settling the CDC FIFO through ``randint`` and one ``next_edge_after``
  per edge (the simulator computes both paths from carried tick indices
  now, through ``SyncFifo.settle``).

``seed_implementation()`` patches them all in, so a whole experiment can
be replayed on the seed core.
"""

from __future__ import annotations

import bisect
import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from types import MethodType
from typing import Any, Callable, List, Optional

from repro.clocks.oscillator import Oscillator
from repro.dtp import messages as dtpmsg
from repro.dtp.port import DtpPort
from repro.experiments import fig6_dtp
from repro.phy.blocks import BLOCK_TYPE_IDLE, IDLE_PAYLOAD_BITS, SYNC_CONTROL, SYNC_DATA
from repro.sim.engine import SimulationError


# ----------------------------------------------------------------------
# Seed engine
# ----------------------------------------------------------------------
class SeedEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "SeedEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class SeedSimulator:
    """The seed event-queue engine (Event objects on the heap)."""

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[SeedEvent] = []
        self._pending = 0

    @property
    def now(self) -> int:
        return self._now

    @property
    def pending_events(self) -> int:
        return self._pending

    def schedule(self, delay_fs: int, fn: Callable[..., Any], *args: Any) -> SeedEvent:
        if delay_fs < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_fs})")
        return self.schedule_at(self._now + delay_fs, fn, *args)

    def schedule_at(self, time_fs: int, fn: Callable[..., Any], *args: Any) -> SeedEvent:
        if time_fs < self._now:
            raise SimulationError(
                f"cannot schedule at {time_fs} fs; current time is {self._now} fs"
            )
        event = SeedEvent(time_fs, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._queue, event)
        self._pending += 1
        return event

    def cancel(self, event: Optional[SeedEvent]) -> None:
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._pending -= 1

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._pending -= 1
            self._now = event.time
            event.fn(*event.args)
            return True
        return False

    def run_until(self, time_fs: int) -> None:
        if time_fs < self._now:
            raise SimulationError(
                f"run_until({time_fs}) is in the past (now={self._now})"
            )
        while self._queue:
            event = self._queue[0]
            if event.time > time_fs:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._pending -= 1
            self._now = event.time
            event.fn(*event.args)
        self._now = time_fs

    def run(self, max_events: Optional[int] = None) -> int:
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count


# ----------------------------------------------------------------------
# Seed oscillator / clock methods
# ----------------------------------------------------------------------
def seed_segment_for(self, t_fs):
    if t_fs < self.origin_fs:
        raise ValueError(
            f"query at {t_fs} fs precedes oscillator origin {self.origin_fs} fs"
        )
    while self._segments[-1].end_fs <= t_fs:
        self._append_next_segment()
    index = bisect.bisect_right(self._starts, t_fs) - 1
    return self._segments[index]


def seed_ticks_at(self, t_fs):
    return self._segment_for(t_fs).ticks_at(t_fs)


def seed_time_of_tick(self, n):
    if n < 1:
        raise ValueError("tick index must be >= 1")
    while self._segments[-1].start_count + self._segments[-1].edge_count < n:
        self._append_next_segment()
    lo, hi = 0, len(self._segments) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        seg = self._segments[mid]
        if seg.start_count + seg.edge_count >= n:
            hi = mid
        else:
            lo = mid + 1
    segment = self._segments[lo]
    k = n - segment.start_count - 1
    return segment.first_edge_fs + k * segment.period_fs


def seed_next_edge_after(self, t_fs):
    segment = self._segment_for(max(t_fs, self.origin_fs))
    while True:
        edge = segment.next_edge_after(t_fs)
        if edge is not None:
            return edge
        while self._segments[-1].end_fs <= segment.end_fs:
            self._append_next_segment()
        index = bisect.bisect_right(self._starts, segment.end_fs) - 1
        segment = self._segments[index]


# ----------------------------------------------------------------------
# Seed 64b/66b block object
# ----------------------------------------------------------------------
class SeedBlockError(ValueError):
    pass


@dataclass(frozen=True)
class SeedBlock66:
    """The seed's 66-bit block object, built and parsed once per message."""

    sync: int
    payload: int

    def __post_init__(self) -> None:
        if self.sync not in (SYNC_DATA, SYNC_CONTROL):
            raise SeedBlockError(f"invalid sync header {self.sync:#04b}")
        if not 0 <= self.payload < (1 << 64):
            raise SeedBlockError("payload must fit in 64 bits")

    def to_int(self) -> int:
        return (self.sync << 64) | self.payload

    @classmethod
    def from_int(cls, value: int) -> "SeedBlock66":
        if not 0 <= value < (1 << 66):
            raise SeedBlockError("value must fit in 66 bits")
        return cls(sync=value >> 64, payload=value & ((1 << 64) - 1))

    @property
    def is_control(self) -> bool:
        return self.sync == SYNC_CONTROL

    @property
    def block_type(self) -> int:
        if not self.is_control:
            raise SeedBlockError("data blocks have no block type")
        return (self.payload >> 56) & 0xFF

    @property
    def is_idle(self) -> bool:
        return self.is_control and self.block_type == BLOCK_TYPE_IDLE


def seed_embed_bits_in_idle(bits56):
    if not 0 <= bits56 < (1 << IDLE_PAYLOAD_BITS):
        raise SeedBlockError("DTP message must fit in 56 bits")
    return SeedBlock66(sync=SYNC_CONTROL, payload=(BLOCK_TYPE_IDLE << 56) | bits56)


def seed_extract_bits_from_idle(block):
    if not block.is_idle:
        raise SeedBlockError("not an idle control block")
    return block.payload & ((1 << IDLE_PAYLOAD_BITS) - 1)


# ----------------------------------------------------------------------
# Seed DTP port hot path
# ----------------------------------------------------------------------
class SeedMessageError(ValueError):
    pass


@dataclass(frozen=True)
class SeedDtpMessage:
    """The seed's decoded-message object, one built per message each way."""

    mtype: Any
    payload: int

    def __post_init__(self) -> None:
        if not 0 <= self.payload <= dtpmsg.PAYLOAD_MASK:
            raise SeedMessageError(f"payload {self.payload:#x} exceeds 53 bits")


def seed_encode(message):
    return (int(message.mtype) << dtpmsg.PAYLOAD_BITS) | message.payload


def seed_decode(bits56):
    # The type lookup reads the precomputed table, as the package codec did
    # for as long as it existed, so the seed side times the object round trip.
    if not 0 <= bits56 < (1 << 56):
        raise SeedMessageError("DTP message must fit in 56 bits")
    mtype = dtpmsg.TYPE_TABLE[bits56 >> dtpmsg.PAYLOAD_BITS]
    if mtype is None:
        raise SeedMessageError(f"unknown message type code {bits56 >> dtpmsg.PAYLOAD_BITS}")
    return SeedDtpMessage(mtype=mtype, payload=bits56 & dtpmsg.PAYLOAD_MASK)


def seed_reconstruct_counter(low, reference, bits=dtpmsg.COUNTER_LOW_BITS):
    modulus = 1 << bits
    base = (reference >> bits) << bits
    candidates = (base - modulus + low, base + low, base + modulus + low)
    return min(candidates, key=lambda value: abs(value - reference))


def seed_count_sent(stats, mtype):
    stats._sent[mtype.name].value += 1


def seed_count_received(stats, mtype):
    stats._received[mtype.name].value += 1


def seed_beacon_payload(self, t_fs):
    counter = self._tx_counter(t_fs)
    if self.config.parity:
        return dtpmsg.payload_with_parity(counter)
    return counter & dtpmsg.COUNTER_LOW_MASK


def seed_payload_builder(self, mtype, echo):
    """The closure the seed's caller built for ``mtype``: it reads the
    counter from the time of the send."""
    if mtype is dtpmsg.MessageType.INIT:
        return lambda t: dtpmsg.counter_low(self.lc.counter_at(t))
    if mtype is dtpmsg.MessageType.INIT_ACK:
        return lambda t: echo
    if mtype is dtpmsg.MessageType.BEACON:
        return MethodType(seed_beacon_payload, self)  # the seed's bound method
    if mtype is dtpmsg.MessageType.BEACON_MSB:
        return lambda t: dtpmsg.counter_high(self._tx_counter(t))
    return lambda t: dtpmsg.counter_low(self._tx_counter(t))


def seed_schedule_transmit(self, mtype, _tick=None, echo=0):
    # ``_tick``: the current code's callers pass the tick they read; the
    # seed reads it again, and builds the payload closure its caller did.
    # An idle link has no model now (the seed's ``IdleLink`` answered the
    # query itself).
    payload_builder = seed_payload_builder(self, mtype, echo)
    tick = self.osc.ticks_at(self.sim.now)
    slot = max(tick + 1, self._last_tx_slot + 1)
    if self.traffic is not None:
        slot = self.traffic.next_idle_tick(slot)
    self._last_tx_slot = slot
    self.sim.schedule_at(
        self.osc.time_of_tick(slot), self._transmit_now, mtype, payload_builder
    )


def seed_advance_ticks(oscillator, t_fs, ticks):
    n = oscillator.ticks_at(t_fs) + ticks
    if n < 1:
        return t_fs
    return oscillator.time_of_tick(n)


def seed_tx_exit_time(tx_oscillator, send_edge_fs, config):
    return seed_advance_ticks(tx_oscillator, send_edge_fs, config.tx_pipeline_ticks)


def seed_delivery_time(fifo, local_oscillator, arrival_fs):
    fifo.crossings += 1
    t = local_oscillator.next_edge_after(arrival_fs)
    extra = fifo.rng.randint(0, fifo.max_extra_cycles) if fifo.enabled else 0
    for _ in range(extra):
        t = local_oscillator.next_edge_after(t)
    return t


def seed_rx_process_time(arrival_fs, rx_fifo, rx_oscillator, config):
    crossed_fs = seed_delivery_time(rx_fifo, rx_oscillator, arrival_fs)
    return seed_advance_ticks(rx_oscillator, crossed_fs, config.rx_pipeline_ticks)


def seed_transmit_now(self, mtype, payload_builder):
    from repro.dtp.port import PortState

    if self.state is PortState.DOWN or self.peer is None:
        return
    now = self.sim.now
    payload = payload_builder(now)
    bits56 = seed_encode(SeedDtpMessage(mtype, payload))
    seed_count_sent(self.stats, mtype)
    exit_fs = seed_tx_exit_time(self.osc, now, self.config.latency)
    arrival_fs = exit_fs + self.wire_delay_fs
    wire_bits = seed_embed_bits_in_idle(bits56).to_int()
    if self.ber is not None:
        wire_bits = self.ber.corrupt(wire_bits, 66)
    self.sim.schedule_at(arrival_fs, self.peer._arrive, wire_bits)


def seed_arrive(self, wire_bits):
    from repro.dtp.port import PortState

    if self.state is PortState.DOWN:
        return
    if wire_bits is None:
        self.stats._lost_on_wire.value += 1
        return
    try:
        block = SeedBlock66.from_int(wire_bits)
        if not block.is_idle:
            raise SeedBlockError("not an idle block")
        bits56 = seed_extract_bits_from_idle(block)
    except SeedBlockError:
        self.stats._lost_on_wire.value += 1
        return
    process_fs = seed_rx_process_time(
        self.sim.now, self.fifo, self.osc, self.config.latency
    )
    self.sim.schedule_at(process_fs, self._process, bits56)


def seed_process(self, bits56):
    from repro.dtp.port import PortState

    if self.state is PortState.DOWN:
        return
    try:
        message = seed_decode(bits56)
    except SeedMessageError:
        self.stats._rejected["undecodable"].value += 1
        return
    seed_count_received(self.stats, message.mtype)
    now = self.sim.now
    handler = {
        dtpmsg.MessageType.INIT: self._on_init,
        dtpmsg.MessageType.INIT_ACK: self._on_init_ack,
        dtpmsg.MessageType.BEACON: self._on_beacon,
        dtpmsg.MessageType.BEACON_JOIN: self._on_join,
        dtpmsg.MessageType.BEACON_MSB: self._on_msb,
        dtpmsg.MessageType.LOG: self._on_log_message,
    }[message.mtype]
    # The current handlers take the RX edge; the seed's read it from ``now``.
    handler(message.payload, now, self.osc.ticks_at(now))


def seed_schedule_beacon_timeout(self, _tick=None):
    # ``_tick``: T2 in the current code passes the tick it read.
    tick = self.osc.ticks_at(self.sim.now)
    when = self.osc.time_of_tick(tick + self.config.beacon_interval_ticks)
    self._beacon_event = self.sim.schedule_at(when, self._beacon_timeout)


def seed_beacon_timeout(self):
    from repro.dtp.port import PortState

    if self.state is not PortState.SYNCHRONIZED:
        return
    self._schedule_transmit(dtpmsg.MessageType.BEACON)
    self._beacons_since_msb += 1
    if self._beacons_since_msb >= self.config.msb_interval_beacons:
        self._beacons_since_msb = 0
        self._schedule_transmit(dtpmsg.MessageType.BEACON_MSB)
    self._schedule_beacon_timeout()


@contextmanager
def seed_implementation():
    """Patch the seed hot-path code back in, for apples-to-apples timing.

    Patches the engine class used by the Fig. 6 experiment module plus the
    oscillator/clock/port/message hot methods; restores everything on exit.
    """
    saved = {
        "sim": fig6_dtp.Simulator,
        "_segment_for": Oscillator._segment_for,
        "ticks_at": Oscillator.ticks_at,
        "time_of_tick": Oscillator.time_of_tick,
        "next_edge_after": Oscillator.next_edge_after,
        "reconstruct_counter": dtpmsg.reconstruct_counter,
        "_schedule_beacon_timeout": DtpPort._schedule_beacon_timeout,
        "_beacon_timeout": DtpPort._beacon_timeout,
        "_schedule_transmit": DtpPort._schedule_transmit,
        "_transmit_now": DtpPort._transmit_now,
        "_arrive": DtpPort._arrive,
        "_process": DtpPort._process,
    }
    fig6_dtp.Simulator = SeedSimulator
    Oscillator._segment_for = seed_segment_for
    Oscillator.ticks_at = seed_ticks_at
    Oscillator.time_of_tick = seed_time_of_tick
    Oscillator.next_edge_after = seed_next_edge_after
    dtpmsg.reconstruct_counter = seed_reconstruct_counter
    DtpPort._schedule_beacon_timeout = seed_schedule_beacon_timeout
    DtpPort._beacon_timeout = seed_beacon_timeout
    DtpPort._schedule_transmit = seed_schedule_transmit
    DtpPort._transmit_now = seed_transmit_now
    DtpPort._arrive = seed_arrive
    DtpPort._process = seed_process
    try:
        yield
    finally:
        fig6_dtp.Simulator = saved["sim"]
        Oscillator._segment_for = saved["_segment_for"]
        Oscillator.ticks_at = saved["ticks_at"]
        Oscillator.time_of_tick = saved["time_of_tick"]
        Oscillator.next_edge_after = saved["next_edge_after"]
        dtpmsg.reconstruct_counter = saved["reconstruct_counter"]
        DtpPort._schedule_beacon_timeout = saved["_schedule_beacon_timeout"]
        DtpPort._beacon_timeout = saved["_beacon_timeout"]
        DtpPort._schedule_transmit = saved["_schedule_transmit"]
        DtpPort._transmit_now = saved["_transmit_now"]
        DtpPort._arrive = saved["_arrive"]
        DtpPort._process = saved["_process"]
