"""The per-shard simulation engine.

A :class:`ShardSimulator` is the :class:`~repro.sim.engine.Simulator`
with three changes, none visible to the DTP machinery running on it:

* **Serial-equivalent event keys.**  The serial engine orders events by
  ``(time, seq)`` with a globally increasing ``seq``.  Shards cannot
  share a counter, so ``seq`` here packs the key ``(alloc_time,
  alloc_ctr, src)`` (:func:`pack_key`): the dispatch instant that
  allocated the event, a per-instant counter, and a source id.  Within
  one shard this reproduces serial ``seq`` order exactly (later
  allocation instants have larger keys; same-instant allocations keep
  their order).  Across shards the key is a total order that can differ
  from a serial run's only when two events on *different* shards are
  allocated at the same femtosecond and fire at the same femtosecond.
  On distinct skewed tick grids that does not happen (none of the nine
  builtins or ``clos-fabric`` has it; the equivalence tests pin them);
  on a 336-device fabric some devices share a grid, and a traced run
  shows it as reordered same-femtosecond records (docs/SHARDING.md,
  "Known gap").
  Root-phase allocations (scenario construction, before time starts)
  use ``(-1, ordinal, 0)`` so all shards number them identically.
  Because the key *is* ``seq``, heap entries have the serial engine's
  shape and :mod:`repro.fastpath`'s merged loop runs a shard unchanged
  (:attr:`Simulator.key_layout <repro.sim.engine.Simulator.key_layout>`
  tells it how to step and rebase the counter): owned–owned link
  directions batch exactly as in the serial run.

* **Safety classification.**  Every scheduled callback is classified at
  push time with a conservative bound on how soon it could cause a
  cross-shard arrival (its ``delta``, the one field a heap entry has
  beyond the serial shape): transmit-path events on a boundary port get
  that channel's lookahead; events that can cascade into a JOIN (the
  INIT family) get the shard's minimum out-channel lookahead; provably
  local events (BEACON processing, foreign-port no-ops) get ``None``.
  :meth:`promise` — the null message — is the min of ``time + delta``
  over live entries.  Virtual events never enter it: only a direction
  between two owned nodes promotes, and every event of its beacon chain
  is one this classification proves local.

* **Boundary capture.**  A cut edge's ghost peer port carries a
  :class:`BoundaryOutbox` in its ``_arrive`` slot; ``post_at`` captures
  those arrivals (with the sender-side key, so the receiving shard
  heaps them in exactly the serial position) instead of scheduling
  them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..dtp import messages as dtpmsg
from ..dtp.port import DtpPort
from ..fastpath import FastpathCoordinator
from ..phy.blocks import (
    IDLE_PAYLOAD_MASK,
    IDLE_WIRE_BASE,
    IDLE_WIRE_HEADER_MASK,
)
from ..sim.engine import _UNCANCELLABLE, Event, SimulationError, Simulator

#: Message types whose processing can cascade into new transmissions
#: (INIT -> INIT_ACK, INIT_ACK -> JOIN, JOIN -> JOINs on sibling ports).
#: BEACON/BEACON_MSB/LOG handlers only mutate local clock state.
UNSAFE_MESSAGE_TYPES = frozenset(
    (
        dtpmsg.MessageType.INIT,
        dtpmsg.MessageType.INIT_ACK,
        dtpmsg.MessageType.BEACON_JOIN,
    )
)


#: ``seq`` field widths below the allocating instant: 32 bits of
#: per-instant counter over 16 bits of source id.
KEY_STRIDE = 1 << 16
KEY_INSTANT = KEY_STRIDE << 32


def pack_key(alloc_time: int, ctr: int, src: int) -> int:
    """``(alloc_time, ctr, src)`` as one ``seq`` integer, order preserved.

    Both leading fields start at ``-1`` (the root phase; a probe's slot
    ahead of every real allocation of its instant), so each is stored
    off by one and the smallest key, ``(-1, -1, 0)``, is 0 — above the
    merged loop's ``-1`` promotion sentinel.
    """
    return (alloc_time + 1) * KEY_INSTANT + (ctr + 1) * KEY_STRIDE + src


def noop_link_up() -> None:
    """Replaces ``link_up`` on foreign ports: they stay DOWN forever."""


class BoundaryOutbox:
    """Marker installed as a ghost peer's ``_arrive``; never called.

    ``ShardSimulator.post_at`` recognizes the instance and records the
    would-be arrival in the shard outbox instead of scheduling it.
    """

    __slots__ = ("dest_shard", "dest_key")

    def __init__(self, dest_shard: int, dest_key: Tuple[str, str]) -> None:
        self.dest_shard = dest_shard
        self.dest_key = dest_key

    def __call__(self, *args: Any) -> None:  # pragma: no cover - marker
        raise SimulationError("BoundaryOutbox must be captured, not called")


def payload_unsafe(bits56: int) -> bool:
    """Would processing these 56 payload bits enter the INIT family?"""
    return dtpmsg.TYPE_TABLE[bits56 >> dtpmsg.PAYLOAD_BITS] in UNSAFE_MESSAGE_TYPES


def wire_bits_unsafe(wire_bits: Optional[int]) -> bool:
    """Classify a wire block exactly as the receiver's ``_arrive`` will."""
    if wire_bits is None:
        return False
    if wire_bits & IDLE_WIRE_HEADER_MASK != IDLE_WIRE_BASE:
        return False
    return payload_unsafe(wire_bits & IDLE_PAYLOAD_MASK)


_TRANSMIT_NOW = DtpPort._transmit_now
_ARRIVE = DtpPort._arrive
_PROCESS = DtpPort._process
_SEND_INIT = DtpPort._send_init
_BEACON_TIMEOUT = DtpPort._beacon_timeout
_LINK_UP = DtpPort.link_up


class ShardSimulator(Simulator):
    """Serial engine + packed keys, classification and boundary capture.

    Heap entries are ``(time, seq, fn, args, event, delta)``: the serial
    shape plus ``delta``.  ``seq`` is unique, so heap comparisons never
    reach ``fn``.
    """

    def __init__(
        self,
        shard_id: int,
        owned_nodes: Iterable[str],
        chan_lookahead: Dict[str, int],
        min_out_lookahead: Optional[int],
    ) -> None:
        super().__init__()
        if not 0 <= shard_id < KEY_STRIDE:
            raise SimulationError(f"shard id {shard_id} does not fit an event key")
        self.shard_id = shard_id
        self._owned = frozenset(owned_nodes)
        self._chan_la = dict(chan_lookahead)
        self._min_la = min_out_lookahead
        self.key_layout = (KEY_STRIDE, KEY_INSTANT, pack_key(0, 0, shard_id))
        #: The instant ``_seq`` currently allocates under (the merged loop
        #: rebases it).  Never moves backwards, so a late boundary arrival
        #: revisiting an instant cannot collide with keys allocated there.
        self._alloc_time = 0
        #: An engine is born in the root phase (scenario construction:
        #: keys ``(-1, ordinal, 0)``, numbered alike on every shard) and
        #: leaves it at :meth:`end_root`.
        self._seq = pack_key(-1, 0, 0)
        #: Captured boundary arrivals of the current window:
        #: (dest_shard, dest_key, arrival_fs, wire_bits, seq, unsafe).
        self.outbox: List[tuple] = []
        #: Real (heap) events dispatched; see :attr:`events`.
        self.dispatched = 0
        #: ``seq`` of the event being dispatched, real or virtual (published
        #: by the merged loop), and the per-dispatch record ordinal — the
        #: global position of every trace record and checker call emitted
        #: during that dispatch.  Construction-time calls sit at root ordinal 0.
        self._dispatch_seq = self._slot_seq = pack_key(-1, 0, 0)
        self._record_ord = 0

    # ------------------------------------------------------------------
    # Root phase: scenario construction
    # ------------------------------------------------------------------
    def end_root(self) -> None:
        self._seq = self.key_layout[2]

    @property
    def root_ordinal(self) -> int:
        """The next root ordinal (meaningful during the root phase only)."""
        return self._seq // KEY_STRIDE - 1

    @property
    def events(self) -> int:
        """Events a scalar shard would have dispatched: a virtual event
        stands for one scalar event, except that a promoting
        ``_beacon_timeout`` and its ``(now, -1)`` PLAN are one."""
        source = self.fastpath
        if source is None:
            return self.dispatched
        return self.dispatched + source.virtual_events - source.promotions

    @property
    def virtual_events(self) -> int:
        """How many of :attr:`events` ran batched."""
        return self.fastpath.virtual_events if self.fastpath is not None else 0

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self, fn: Callable[..., Any], args: tuple) -> Optional[int]:
        """Delta for the promise: None = provably shard-local."""
        func = getattr(fn, "__func__", None)
        if func is None:
            return None if fn is noop_link_up else self._min_la
        if func is _ARRIVE:
            return self._min_la if wire_bits_unsafe(args[0]) else None
        if func is _PROCESS:
            return self._min_la if payload_unsafe(args[0]) else None
        port = fn.__self__
        if func is _TRANSMIT_NOW:
            lookahead = self._chan_la.get(port.name)
            if lookahead is not None:
                return lookahead
            if port.device.name not in self._owned:
                return None  # foreign port: DOWN forever, body no-ops
            return self._min_la if args[0] in UNSAFE_MESSAGE_TYPES else None
        if func is _BEACON_TIMEOUT:
            # Boundary beacon timeouts transmit across the cut; internal
            # ones only schedule (safe) BEACON/MSB transmissions.
            return self._chan_la.get(port.name)
        if func is _SEND_INIT or func is _LINK_UP:
            lookahead = self._chan_la.get(port.name)
            if lookahead is not None:
                return lookahead
            if port.device.name not in self._owned:
                return None
            return self._min_la
        # Unknown callbacks (fault callbacks, traffic hooks): assume the
        # worst — they may transmit on any out-channel immediately.
        return self._min_la

    # ------------------------------------------------------------------
    # Scheduling overrides (packed seq, classified entries)
    # ------------------------------------------------------------------
    def schedule(self, delay_fs: int, fn: Callable[..., Any], *args: Any) -> Event:
        if delay_fs < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_fs})")
        return self.schedule_at(self._now + delay_fs, fn, *args)

    def schedule_at(self, time_fs: int, fn: Callable[..., Any], *args: Any) -> Event:
        if time_fs < self._now:
            raise SimulationError(
                f"cannot schedule at {time_fs} fs; current time is {self._now} fs"
            )
        seq = self._seq
        self._seq = seq + KEY_STRIDE
        return self.adopt(time_fs, seq, fn, *args)

    def post_at(self, time_fs: int, fn: Callable[..., Any], *args: Any) -> None:
        seq = self._seq
        self._seq = seq + KEY_STRIDE
        if type(fn) is BoundaryOutbox:
            # A boundary transmission's arrival: capture it (with the
            # sender-side key it would have carried) for the coordinator.
            wire_bits = args[0]
            self.outbox.append(
                (
                    fn.dest_shard,
                    fn.dest_key,
                    time_fs,
                    wire_bits,
                    seq,
                    wire_bits_unsafe(wire_bits),
                )
            )
            return
        if time_fs < self._now:
            raise SimulationError(
                f"cannot schedule at {time_fs} fs; current time is {self._now} fs"
            )
        heapq.heappush(
            self._queue,
            (time_fs, seq, fn, args, _UNCANCELLABLE, self._classify(fn, args)),
        )

    def adopt(self, time_fs: int, seq: int, fn: Callable[..., Any], *args: Any) -> Event:
        event = Event(time_fs, seq, fn, args)
        heapq.heappush(
            self._queue, (time_fs, seq, fn, args, event, self._classify(fn, args))
        )
        return event

    # ------------------------------------------------------------------
    # Explicitly keyed insertion: boundary arrivals and merge probes
    # ------------------------------------------------------------------
    def insert_arrival(
        self, port: DtpPort, arrival_fs: int, wire_bits: Optional[int],
        seq: int, unsafe: bool,
    ) -> None:
        """Heap a boundary arrival under its sender-side key."""
        heapq.heappush(
            self._queue,
            (
                arrival_fs, seq, port._arrive, (wire_bits,), _UNCANCELLABLE,
                self._min_la if unsafe else None,
            ),
        )

    def push_probe(self, time_fs: int, seq: int, fn: Callable[[], None]) -> None:
        """Schedule a merge probe (checker tick, sampler) under ``seq``:
        ``pack_key(previous grid instant, -1, probe id)`` — the position
        of the serial run's corresponding event, allocated at the previous
        grid instant before any real allocation there (``-1 < ctr``) — or,
        for its first firing, the root ordinal the serial run's
        ``schedule_at`` would have taken (:meth:`take_root_key`)."""
        heapq.heappush(self._queue, (time_fs, seq, fn, (), _UNCANCELLABLE, None))

    def take_root_key(self) -> int:
        """Consume the next root-phase key."""
        seq = self._seq
        if seq >= KEY_INSTANT:
            raise SimulationError("take_root_key outside the root phase")
        self._seq = seq + KEY_STRIDE
        return seq

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def promise(self) -> Optional[int]:
        """Earliest time this shard could still affect another shard
        (the null message).  None: cannot affect anyone, ever, from the
        current queue."""
        best: Optional[int] = None
        for entry in self._queue:
            delta = entry[5]
            if delta is None or entry[4].cancelled:
                continue
            bound = entry[0] + delta
            if best is None or bound < best:
                best = bound
        return best

    def run_window(self, limit_fs: int) -> None:
        """Run every event strictly before ``limit_fs``: the merged loop
        (the one loop there is) to ``limit_fs - 1``."""
        source = self.fastpath
        if source is None:
            # No port here can promote (every link pinned or refused): over
            # an empty virtual queue the merged loop is the scalar loop.
            source = FastpathCoordinator(self)
        if limit_fs > self._now:
            source.run_merged(limit_fs - 1)

    def take_record_slot(self) -> Tuple[int, int]:
        """``seq`` of the current dispatch + the ordinal of its next
        record/call."""
        seq = self._dispatch_seq
        if seq != self._slot_seq:
            self._slot_seq = seq
            self._record_ord = 0
        ordinal = self._record_ord
        self._record_ord = ordinal + 1
        return seq, ordinal

    def drain_outbox(self) -> List[tuple]:
        outbox = self.outbox
        self.outbox = []
        return outbox
