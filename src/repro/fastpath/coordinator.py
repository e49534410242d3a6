"""Batched beacon-interval execution with exact scalar equivalence.

The coordinator advances healthy DTP directions through their steady-state
beacon cycle without touching the engine heap.  Each scalar beacon chain

    _beacon_timeout -> _transmit_now -> _arrive -> _process

becomes four *virtual* events (PLAN, CAPTURE, ARRIVE, APPLY) held in the
coordinator's own queue.  :meth:`FastpathCoordinator.run_merged` — the
loop :meth:`Simulator.run_until <repro.sim.engine.Simulator.run_until>`
hands over to — merges that queue with the engine heap by ``(time, seq)``
with all four stage bodies inlined, so a steady-state beacon interval
costs a handful of integer operations and two small-heap pushes instead of
four engine dispatches through the full port machinery.

**Why this is bit-identical, not approximately identical:**

* Virtual events draw their sequence numbers from the *engine's* counter
  at exactly the moments the scalar run would have allocated them (the
  transmit post inside the beacon timeout, the arrival post at the TX
  instant, the process post at the arrival).  The merged ``(time, seq)``
  order is therefore the same total order a scalar run produces —
  including same-femtosecond ties, which are common on a shared device
  oscillator and *do* change payloads when a capture and a jump collide.
* The slot arbiter (``_last_tx_slot``) and MSB cadence counter stay on the
  port object itself, so scalar transmissions (LOG records, JOINs, INIT
  retries) interleave with batched beacons through the very same state.
* All clock state (``lc``/``gc`` offsets, adjustment counts, stats cells,
  fault-window counters, CDC crossing counts and RNG streams) is mutated
  in place at virtual-event time, so any scalar event — an invariant
  checker tick, a logger, a watcher — reads exactly what it would have
  read mid-chain in a scalar run.
* PLAN, CAPTURE and APPLY fire on a tick edge whose index was known when
  the stage was scheduled, and carry it in their entry (layout below the
  imports).  The scalar ``_beacon_timeout``, ``_transmit_now`` and
  ``_process`` carry the same index as an argument and read a plain
  clock as ``increment * n + offset`` too; the oscillator guarantees
  ``ticks_at(time_of_tick(n)) == n``, so the carried index is the one a
  time-based read would map back.  Only ARRIVE, which lands between
  receiver edges, divides.
* With telemetry tracing on, each stage appends the records the scalar
  handler it stands for would have appended — ``EV_TX`` in CAPTURE,
  ``EV_RX`` then ``EV_REJECT`` / ``EV_JUMP`` in APPLY, ``EV_PEER_FAULT``
  on a tripped fault window — with the same five ints.  Dispatch order
  is the scalar order, so the trace ring (and every artifact cut from
  it) is byte-identical too.
* Only a direction's oldest pending capture sits in the heap; the rest
  wait in its ``txq``.  The slot arbiter hands one direction strictly
  increasing slots and PLAN numbers them in that order, so its captures
  fire in queue order, and each pushes its successor (a key still ahead
  of ``now``) as it fires.  On Fig. 6a's links the beacon interval is
  the slot period, so every LOG or BEACON_MSB delays its direction's
  beacons by one slot for good: in the heap, that backlog made every
  sift dearer.
* Anything irregular demotes the direction: its heap entries are taken
  out and, with its queued captures, re-materialized as real heap events
  at their original times and sequence numbers (a PLAN as the beacon
  timeout of the tick it carries, a CAPTURE as the transmission of its
  slot, an APPLY as the ``_process`` of its receiver tick), and the
  scalar path finishes the chain (``link_down``, a
  tripped fault window, ``DtpPort.leave_fastpath`` before a fault patches
  the port, ``DtpNetwork.pin_scalar`` on a shard worker's ghost links).

The stage bodies exist once, inlined in :meth:`run_merged`; promotion
reaches them through the queue.  A direction promotes from inside its own
scalar ``_beacon_timeout`` dispatch at ``(now, s)``; rather than planning
that beacon itself, :meth:`on_beacon_timeout` pushes a PLAN entry keyed
``(now, -1)`` carrying the tick the timeout carries, and the timeout
returns at once.  Everything with a key below ``(now, s)`` has already
run, and real sequence numbers are never negative, so ``(now, -1)`` is
the minimum of both queues: the loop's very next pick is that PLAN,
before any other event can move the slot arbiter or the counter.  The sentinel draws nothing from the engine counter, so
the PLAN body allocates exactly the sequence numbers the scalar timeout
would have allocated in its place — same ``(time, seq)`` total order,
same final ``sim._seq``.  (One promotion per dispatch means at most one
``-1`` entry is ever pending.)
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from typing import List

from ..dtp import messages as dtpmsg
from ..dtp.port import DtpPort
from ..phy.blocks import IDLE_WIRE_BASE
from ..sim.engine import SimulationError, Simulator
from ..telemetry.events import (
    EV_JUMP,
    EV_PEER_FAULT,
    EV_REJECT,
    EV_RX,
    EV_TX,
    REJECT_RANGE,
)
from .eligibility import direction_ineligible_reason

#: Virtual-event stages.  BEACON and BEACON_MSB flavors are distinct so
#: payloads travel pre-decoded (no 56-bit pack/unpack on the hot path);
#: BEACON stages are odd, and CAPTURE and ARRIVE lead to ``stage + 2``.
PLAN = 0
CAP_B = 1
CAP_M = 2
ARR_B = 3
ARR_M = 4
APP_B = 5
APP_M = 6

#: Message types as the plain ints trace records carry in field ``a``.
_BEACON = int(dtpmsg.MessageType.BEACON)
_MSB = int(dtpmsg.MessageType.BEACON_MSB)
_SHIFTED_BEACON = dtpmsg.SHIFTED_TYPE[dtpmsg.MessageType.BEACON]
_SHIFTED_MSB = dtpmsg.SHIFTED_TYPE[dtpmsg.MessageType.BEACON_MSB]
_LOW_BITS = dtpmsg.COUNTER_LOW_BITS
_LOW_MASK = dtpmsg.COUNTER_LOW_MASK
_MOD = 1 << _LOW_BITS
_HALF = _MOD >> 1

# Virtual heap entries are plain tuples:
#   (time_fs, seq, stage, direction, payload)       PLAN, CAP_*, ARR_*
#   (time_fs, seq, stage, direction, payload, n)    APP_*
# The payload field of a PLAN holds the sender tick it fires on, of a
# CAPTURE its TX slot; an ARRIVE or APPLY carries the message payload, and
# an APPLY's ``n`` is the receiver tick its ARRIVE computed.  Every entry
# in the heap (and in a direction's ``txq``) is live: demotion takes a
# direction's entries out at once.


class _Direction:
    """One batched link direction (``sender`` beacons into ``receiver``),
    with every per-chain constant resolved once at promotion time."""

    __slots__ = (
        "sender",
        "receiver",
        # Slot of the last capture planned, and the captures queued behind
        # the one in the heap (None until the first one queues).
        "cap_slot",
        "txq",
        # Oscillators + cached piecewise-affine segments (refreshed on miss;
        # any segment whose range covers a query is correct, since segments
        # partition both time and tick indices).
        "posc",
        "qosc",
        "pseg",
        "qseg",
        # Clocks.
        "gc_p",
        "lc_q",
        "gc_q",
        # Protocol constants.
        "d",
        "thresh",
        "interval",
        "msb_every",
        "txpipe",
        "wire",
        "rxpipe",
        # Receiver CDC.
        "fifo",
        "rand",
        "bound",
        "kbits",
        # Stats cells (cached after any registry binding; ``Counter`` cells
        # are stable for the lifetime of the port).
        "sent_b",
        "sent_m",
        "recv_b",
        "recv_m",
        "jumps_cell",
        "rej_cell",
        "stats_q",
        # Fault-window config.
        "fw",
        "maxj",
        "maxr",
        # Interned trace subject ids of both endpoints (-1 = tracing off).
        "sid_p",
        "sid_q",
    )

    def __init__(self, sender: DtpPort) -> None:
        receiver = sender.peer
        self.sender = sender
        self.receiver = receiver
        self.cap_slot = -1
        self.txq = None
        self.posc = sender.osc
        self.qosc = receiver.osc
        self.pseg = None
        self.qseg = None
        self.gc_p = sender.device.gc
        self.lc_q = receiver.lc
        self.gc_q = receiver.device.gc
        self.d = receiver.d
        self.thresh = receiver._reject_threshold
        cfg = sender.config
        self.interval = cfg.beacon_interval_ticks
        self.msb_every = cfg.msb_interval_beacons
        self.txpipe = sender._tx_pipeline_ticks
        self.wire = sender.wire_delay_fs
        self.rxpipe = receiver._rx_pipeline_ticks
        fifo = receiver.fifo
        self.fifo = fifo
        self.rand = fifo.rng.getrandbits
        self.bound = fifo.max_extra_cycles + 1
        self.kbits = self.bound.bit_length()
        self.sent_b = sender.stats._sent["BEACON"]
        self.sent_m = sender.stats._sent["BEACON_MSB"]
        self.recv_b = receiver.stats._received["BEACON"]
        self.recv_m = receiver.stats._received["BEACON_MSB"]
        self.jumps_cell = receiver.stats._jumps
        self.rej_cell = receiver.stats._rejected["out_of_range"]
        self.stats_q = receiver.stats
        qcfg = receiver.config
        self.fw = qcfg.fault_window_beacons
        self.maxj = qcfg.max_jumps_per_window
        self.maxr = qcfg.max_rejects_per_window
        self.sid_p = sender._sid
        self.sid_q = receiver._sid


class FastpathCoordinator:
    """Virtual-event source and merged run loop for the batched backend.

    Create one per network (it attaches itself to the engine) and point
    the ``_fastpath`` of every port that could ever promote at it; ports
    then promote themselves from their own ``_beacon_timeout`` once
    eligible.  ``tracer`` is the network's trace recorder (every port of
    one :class:`~repro.dtp.network.DtpNetwork` records into the same one),
    or None with tracing off.
    """

    def __init__(self, sim: Simulator, tracer=None) -> None:
        self.sim = sim
        #: The recorder's bound ``record``; like the ports' ``_tracer``,
        #: None is the disabled state and costs one test per would-be record.
        self._record = tracer.record if tracer is not None else None
        self._heap: List[tuple] = []
        self._dirs: dict = {}
        #: Instrumentation (not part of any digest).
        self.promotions = 0
        self.demotions = 0
        self.virtual_events = 0
        sim.attach_fastpath(self)

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------
    def on_beacon_timeout(self, port: DtpPort, tick: int) -> bool:
        """Called by ``DtpPort._beacon_timeout`` at ``tick``; True =
        direction batched.

        Runs at the port's own beacon instant, so taking over is seamless:
        this very beacon becomes a virtual PLAN keyed ``(now, -1)`` — the
        next event :meth:`run_merged` picks (module docstring) — which
        allocates the sequence numbers the scalar body would have.
        """
        if direction_ineligible_reason(port) is not None:
            return False
        ds = _Direction(port)
        self._dirs[port] = ds
        port._beacon_event = None
        self.promotions += 1
        # Any segment seeds the cache (a miss refreshes it); the timeout
        # was scheduled through ``time_of_tick``, so there is one.
        ds.pseg = ds.posc._last_hit
        heappush(self._heap, (self.sim._now, -1, PLAN, ds, tick))
        return True

    def demote_port(self, port: DtpPort) -> None:
        """Demote ``port``'s send direction, if it is batched."""
        ds = self._dirs.get(port)
        if ds is not None:
            self.demote(ds)

    def on_link_down(self, port: DtpPort) -> None:
        """Demote both directions touching ``port`` (cable pulled)."""
        self.demote_port(port)
        if port.peer is not None:
            self.demote_port(port.peer)

    def demote(self, ds: _Direction) -> None:
        """Hand a direction back to the scalar path.

        The direction's entries leave the virtual heap (re-heapified in
        place: :meth:`run_merged` holds it) and its queued captures leave
        ``txq``; each pending virtual event is re-materialized as a real
        heap event at its original firing time *and sequence number*, a
        PLAN as the beacon timeout of the tick it carries, a CAPTURE as the
        transmission of its slot and an APPLY as the ``_process`` of its
        receiver tick ``n``.  The scalar handlers then run their
        full checks (link state, TX gate, BER, parity) against whatever
        triggered the demotion.  Keeping the sequence numbers keeps every
        same-instant tie — against each other and against directions that
        stay batched — in scalar order.
        """
        adopt = self.sim.adopt
        p = ds.sender
        q = ds.receiver
        heap = self._heap
        pending = [e for e in heap if e[3] is ds]
        heap[:] = [e for e in heap if e[3] is not ds]
        heapify(heap)
        if ds.txq:
            pending.extend(ds.txq)
            ds.txq.clear()
        # ``n`` is empty but for an APPLY, where it holds the receiver tick.
        for when, seq, stage, _, payload, *n in pending:
            shifted = _SHIFTED_BEACON if stage & 1 else _SHIFTED_MSB
            if stage == PLAN:
                p._beacon_event = adopt(when, seq, p._beacon_timeout, payload)
            elif stage <= CAP_M:
                mtype = dtpmsg.MessageType(_BEACON if stage & 1 else _MSB)
                adopt(when, seq, p._transmit_now, mtype, payload, 0)
            elif stage <= ARR_M:
                adopt(when, seq, q._arrive, IDLE_WIRE_BASE | shifted | payload)
            else:
                adopt(when, seq, q._process, shifted | payload, *n)
        del self._dirs[p]
        self.demotions += 1

    # ------------------------------------------------------------------
    # The merged run loop (hot path — stage bodies inlined)
    # ------------------------------------------------------------------
    def run_merged(self, time_fs: int) -> None:
        """Run engine + virtual events with ``time <= time_fs``, merged.

        Exactly :meth:`Simulator.run_until` over the union of the two
        queues, ordered by ``(time, seq)``.  Simulation time is left at
        ``time_fs``.
        """
        sim = self.sim
        if time_fs < sim._now:
            raise SimulationError(
                f"run_until({time_fs}) is in the past (now={sim._now})"
            )
        queue = sim._queue
        vheap = self._heap
        pop = heappop
        push = heappush
        replace = heapreplace
        profile = sim.profile
        record = self._record
        dispatched = 0
        # The engine seq counter lives in a local, published back only
        # around call-outs (scalar dispatch, fault-window rolls).
        seqc = sim._seq
        # A keyed engine (``Simulator.key_layout``; the shard engine) packs
        # the allocating instant into seq: every dispatch, real or virtual,
        # publishes its own seq (the identity trace records are stamped
        # with) and rebases the counter when the instant has advanced.  A
        # plain engine pays the one ``keyed`` test per event.
        layout = sim.key_layout
        keyed = layout is not None
        if keyed:
            stride, instant, base = layout
            atime = sim._alloc_time
        else:
            stride = 1
            instant = base = atime = 0
        # Above every virtual key the run may fire: times <= time_fs, and
        # no seq is below the promotion sentinel -1.
        horizon = (time_fs + 1, -2)
        while True:
            while queue and queue[0][4].cancelled:
                pop(queue)
                sim._cancelled_in_queue -= 1
            if queue and queue[0][0] <= time_fs:
                limit = entry = queue[0]
            else:
                entry, limit = None, horizon
            # Virtual events below ``limit`` — the engine head, or the
            # horizon — run in this inner loop.  The engine heap cannot
            # change while only virtual events dispatch (a fault-window trip
            # aside, which re-reads it), so one peek covers a whole stretch
            # and the merge is one tuple comparison per event: seqs are
            # unique, so it never reaches a third field.
            while vheap:
                vtop = vheap[0]
                if not vtop < limit:
                    break
                now = vtop[0]
                # An APPLY ends its chain and pops; every other stage
                # replaces its own heap entry with the next one (one sift,
                # not two).
                dispatched += 1
                if keyed:
                    if now > atime:
                        atime = now
                        seqc = now * instant + base
                    sim._dispatch_seq = vtop[1]
                stage = vtop[2]
                ds = vtop[3]

                # Stage tests run in frequency order: each BEACON stage
                # before its BEACON_MSB twin (one beacon in msb_every).
                # --- APPLY (BEACON): T4 with Section 3.2 filtering -----
                # Mirrors _process + _on_beacon + _roll_fault_window.
                if stage == APP_B:
                    pop(vheap)
                    ds.recv_b.value += 1
                    payload = vtop[4]
                    if record is not None:
                        record(now, EV_RX, ds.sid_q, _BEACON, payload)
                    if ds.receiver.peer_faulty:
                        continue
                    ticks = vtop[5]
                    lc = ds.lc_q
                    lc_now = lc.increment * ticks + lc.offset
                    # reconstruct_counter, inlined: the remote counter is
                    # lc_now + d, the wrapped difference in [-half, half).
                    d = (payload - lc_now) & _LOW_MASK
                    if d >= _HALF:
                        d -= _MOD
                    delta = d + ds.d
                    stats = ds.stats_q
                    stats.beacons_in_window += 1
                    thresh = ds.thresh
                    if delta > thresh or delta < -thresh:
                        ds.rej_cell.value += 1
                        stats.rejects_in_window += 1
                        if record is not None:
                            record(now, EV_REJECT, ds.sid_q, REJECT_RANGE, delta)
                    elif delta > 0:
                        # lc.adjust_to_max + device.on_local_jump, inlined.
                        lc.offset += delta
                        lc.adjustments += 1
                        ds.jumps_cell.value += 1
                        stats.jumps_in_window += 1
                        if record is not None:
                            # a == b: reference_counter_at is counter_at
                            # on the plain TickClocks eligibility admits.
                            record(now, EV_JUMP, ds.sid_q, delta, delta)
                        candidate = lc_now + delta
                        gc = ds.gc_q
                        gc_now = gc.increment * ticks + gc.offset
                        if candidate > gc_now:
                            gc.offset += candidate - gc_now
                            gc.adjustments += 1
                    if stats.beacons_in_window >= ds.fw:
                        sim._now = now
                        sim._seq = seqc
                        if self._roll_fault_window(ds):
                            # The trip demoted ``ds`` onto the engine heap
                            # and ran ``on_fault``: re-read its head.
                            seqc = sim._seq
                            limit = None
                            break
                    continue

                # --- ARRIVE: CDC quantize + the one random settling cycle
                # Mirrors _arrive.
                if stage == ARR_B or stage == ARR_M:
                    ds.fifo.crossings += 1
                    seg = ds.qseg
                    n = -1
                    if seg is not None and seg.start_fs <= now < seg.end_fs:
                        fe = seg.first_edge_fs
                        if now < fe:
                            if seg.edge_count:
                                n = seg.start_count + 1
                        else:
                            k = (now - fe) // seg.period_fs + 1
                            if k < seg.edge_count:
                                n = seg.start_count + k + 1
                    osc = ds.qosc
                    if n < 0:
                        n = osc.edge_index_after(now)
                        ds.qseg = osc._last_hit
                    # Exact inline of rng.randint(0, max_extra_cycles): the
                    # same accept-reject loop, on the same stream.
                    bound = ds.bound
                    rand = ds.rand
                    kb = ds.kbits
                    r = rand(kb)
                    while r >= bound:
                        r = rand(kb)
                    n += r + ds.rxpipe
                    seg = ds.qseg
                    sc = seg.start_count
                    if sc < n <= sc + seg.edge_count:
                        when = seg.first_edge_fs + (n - sc - 1) * seg.period_fs
                    else:
                        when = osc.time_of_tick(n)
                        ds.qseg = osc._last_hit
                    replace(vheap, (when, seqc, stage + 2, ds, vtop[4], n))
                    seqc += stride
                    continue

                # --- CAPTURE: read gc, stamp the payload, fly ----------
                # Mirrors _transmit_now; fires on its TX slot, then hands
                # the heap the direction's next queued capture.
                if stage == CAP_B or stage == CAP_M:
                    tick = vtop[4]
                    gc = ds.gc_p
                    counter = gc.increment * tick + gc.offset
                    if stage == CAP_B:
                        payload = counter & _LOW_MASK
                        ds.sent_b.value += 1
                        if record is not None:
                            record(now, EV_TX, ds.sid_p, _BEACON, payload)
                    else:
                        payload = (counter >> _LOW_BITS) & _LOW_MASK
                        ds.sent_m.value += 1
                        if record is not None:
                            record(now, EV_TX, ds.sid_p, _MSB, payload)
                    # A slot is >= 1 and pipeline depths are non-negative,
                    # so the scalar ``n >= 1`` guard always holds here.
                    n = tick + ds.txpipe
                    seg = ds.pseg
                    sc = seg.start_count
                    if sc < n <= sc + seg.edge_count:
                        exit_fs = seg.first_edge_fs + (n - sc - 1) * seg.period_fs
                    else:
                        osc = ds.posc
                        exit_fs = osc.time_of_tick(n)
                        ds.pseg = osc._last_hit
                    replace(vheap, (exit_fs + ds.wire, seqc, stage + 2, ds, payload))
                    seqc += stride
                    txq = ds.txq
                    if txq:
                        push(vheap, txq.popleft())
                    continue

                # --- PLAN: beacon timeout — arbitrate slots, chain the next
                # Mirrors _beacon_timeout + _schedule_transmit; fires on
                # tick n.
                if stage == PLAN:
                    tick = vtop[4]
                    p = ds.sender
                    last = p._last_tx_slot
                    slot = tick + 1 if tick > last else last + 1
                    traffic = p.traffic
                    if traffic is not None:
                        slot = traffic.next_idle_tick(slot)
                    p._last_tx_slot = slot
                    seg = ds.pseg
                    sc = seg.start_count
                    if sc < slot <= sc + seg.edge_count:
                        when = seg.first_edge_fs + (slot - sc - 1) * seg.period_fs
                    else:
                        when = self._tot_p(ds, slot)
                    capture = (when, seqc, CAP_B, ds, slot)
                    seqc += stride
                    # A capture planned on an earlier tick whose slot is
                    # still ahead has not fired: queue behind it.  Else
                    # this one is next; it fires after this PLAN, which
                    # therefore stays on top for the heapreplace below.
                    if ds.cap_slot > tick:
                        txq = ds.txq
                        if txq is None:
                            txq = ds.txq = deque()
                        txq.append(capture)
                    else:
                        push(vheap, capture)
                    b = p._beacons_since_msb + 1
                    if b >= ds.msb_every:
                        p._beacons_since_msb = 0
                        slot += 1
                        if traffic is not None:
                            slot = traffic.next_idle_tick(slot)
                        p._last_tx_slot = slot
                        txq = ds.txq
                        if txq is None:
                            txq = ds.txq = deque()
                        txq.append((self._tot_p(ds, slot), seqc, CAP_M, ds, slot))
                        seqc += stride
                    else:
                        p._beacons_since_msb = b
                    ds.cap_slot = slot
                    n = tick + ds.interval
                    seg = ds.pseg
                    sc = seg.start_count
                    if sc < n <= sc + seg.edge_count:
                        when = seg.first_edge_fs + (n - sc - 1) * seg.period_fs
                    else:
                        when = self._tot_p(ds, n)
                    replace(vheap, (when, seqc, PLAN, ds, n))
                    seqc += stride
                    continue

                # --- APPLY (BEACON_MSB): learn the counter's high half --
                pop(vheap)
                ds.recv_m.value += 1
                if record is not None:
                    record(now, EV_RX, ds.sid_q, _MSB, vtop[4])
                ds.receiver.remote_msb = vtop[4]

            if limit is None:
                continue
            if entry is None:
                break
            now = entry[0]
            pop(queue)
            sim._now = now
            if keyed:
                if now > atime:
                    atime = now
                    seqc = now * instant + base
                sim._dispatch_seq = entry[1]
                sim.dispatched += 1
            sim._seq = seqc
            if profile is not None:
                profile.count(entry[2])
            entry[2](*entry[3])
            seqc = sim._seq

        sim._seq = seqc
        if keyed:
            sim._alloc_time = atime
        self.virtual_events += dispatched
        sim._now = time_fs

    def _tot_p(self, ds: _Direction, n: int) -> int:
        """``time_of_tick`` on the sender oscillator via the segment cache."""
        seg = ds.pseg
        sc = seg.start_count
        if sc < n <= sc + seg.edge_count:
            return seg.first_edge_fs + (n - sc - 1) * seg.period_fs
        osc = ds.posc
        when = osc.time_of_tick(n)
        ds.pseg = osc._last_hit
        return when

    def _roll_fault_window(self, ds: _Direction) -> bool:
        """Mirror ``DtpPort._roll_fault_window``; demote on a trip.
        True = tripped (the engine heap may have changed)."""
        q = ds.receiver
        stats = ds.stats_q
        jumps = stats.jumps_in_window
        rejects = stats.rejects_in_window
        stats.beacons_in_window = 0
        stats.jumps_in_window = 0
        stats.rejects_in_window = 0
        too_many_jumps = ds.maxj is not None and jumps > ds.maxj
        too_many_rejects = ds.maxr is not None and rejects > ds.maxr
        if not (too_many_jumps or too_many_rejects):
            return False
        q.peer_faulty = True
        self.demote(ds)
        record = self._record
        if record is not None:
            record(self.sim._now, EV_PEER_FAULT, ds.sid_q, jumps, rejects)
        if q.on_fault is not None:
            q.on_fault(q)
        return True
