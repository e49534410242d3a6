"""Batched beacon-interval execution with exact scalar equivalence.

The coordinator advances healthy DTP directions through their steady-state
beacon cycle without touching the engine heap.  Each scalar beacon chain

    _beacon_timeout -> _transmit_now -> _arrive -> _process

becomes four *virtual* events (PLAN, CAPTURE, ARRIVE, APPLY) held in the
coordinator's own queue.  :meth:`FastpathCoordinator.run_merged` — the
loop :meth:`Simulator.run_until <repro.sim.engine.Simulator.run_until>`
hands over to — merges that queue with the engine heap by ``(time, seq)``,
so a steady-state beacon interval costs three port-kernel calls, a handful
of integer operations and two small-heap pushes instead of four engine
dispatches through the full port machinery.

The port's rules are the port's methods, and both backends call them: PLAN
asks the sender's ``_tx_slot`` (the ``/E/`` slot arbiter and the
BEACON_MSB cadence), ARRIVE the receiver's ``SyncFifo.settle`` (the CDC
draw) and APPLY the receiver's ``_apply_beacon`` (T4, Algorithm 2 and the
Section 3.2 window, on the carried tick).  What stays here is scheduling:
the virtual heap, sequence numbers, segment-cached tick times, the
pipelines and the stats and trace records of the dispatch itself.

**Why this is bit-identical, not approximately identical:**

* Virtual events draw their sequence numbers from the *engine's* counter
  at exactly the moments the scalar run would have allocated them (the
  transmit post inside the beacon timeout, the arrival post at the TX
  instant, the process post at the arrival).  The merged ``(time, seq)``
  order is therefore the same total order a scalar run produces —
  including same-femtosecond ties, which are common on a shared device
  oscillator and *do* change payloads when a capture and a jump collide.
* The slot arbiter and MSB cadence are the sender port's, so scalar
  transmissions (LOG records, JOINs, INIT retries) interleave with
  batched beacons through the very same state.
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
  ``EV_RX`` in APPLY, then the kernel's ``EV_REJECT`` / ``EV_JUMP`` /
  ``EV_PEER_FAULT`` — with the same five ints.  Dispatch order
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

The stages exist once, in :meth:`run_merged`; promotion reaches them
through the queue.  A direction promotes from inside its own
scalar ``_beacon_timeout`` dispatch at ``(now, s)``; rather than planning
that beacon itself, :meth:`on_beacon_timeout` pushes a PLAN entry keyed
``(now, -1)`` carrying the tick the timeout carries, and the timeout
returns at once.  Everything with a key below ``(now, s)`` has already
run, and real sequence numbers are never negative, so ``(now, -1)`` is
the minimum of both queues: the loop's very next pick is that PLAN,
before any other event can move the slot arbiter or the counter.  The
sentinel draws nothing from the engine counter, so the PLAN body
allocates exactly the sequence numbers the scalar timeout would have
allocated in its place — same ``(time, seq)`` total order, same final
``sim._seq``.  (One promotion per dispatch means at most one
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
from ..telemetry.events import EV_RX, EV_TX
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
    with every per-chain constant resolved once at promotion time.  The
    port's own rules run as its bound methods: ``slot`` (the sender's
    ``/E/`` arbiter and MSB cadence), ``settle`` (the receiver's CDC draw)
    and ``apply`` (the receiver's T4, Algorithm 2 and fault window)."""

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
        # The sender's global clock, read at each capture.
        "gc_p",
        # Protocol constants.
        "interval",
        "txpipe",
        "wire",
        "rxpipe",
        # The port kernels.
        "slot",
        "settle",
        "apply",
        # Stats cells (cached after any registry binding; ``Counter`` cells
        # are stable for the lifetime of the port).
        "sent_b",
        "sent_m",
        "recv_b",
        "recv_m",
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
        self.interval = sender.config.beacon_interval_ticks
        self.txpipe = sender._tx_pipeline_ticks
        self.wire = sender.wire_delay_fs
        self.rxpipe = receiver._rx_pipeline_ticks
        self.slot = sender._tx_slot
        self.settle = receiver.fifo.settle
        self.apply = receiver._apply_beacon
        self.sent_b = sender.stats._sent["BEACON"]
        self.sent_m = sender.stats._sent["BEACON_MSB"]
        self.recv_b = receiver.stats._received["BEACON"]
        self.recv_m = receiver.stats._received["BEACON_MSB"]
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
    # The merged run loop (hot path)
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
        # around scalar dispatches (a kernel call allocates no seq).
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
        while True:
            while queue and queue[0][4].cancelled:
                pop(queue)
                sim._cancelled_in_queue -= 1
            if queue and queue[0][0] <= time_fs:
                entry = queue[0]
                ltime = entry[0]
                lseq = entry[1]
            else:
                # The horizon, above every virtual key the run may fire:
                # times <= time_fs, and no seq is below the promotion
                # sentinel -1.
                entry = None
                ltime = time_fs + 1
                lseq = -2
            # Virtual events below ``(ltime, lseq)`` — the engine head, or
            # the horizon — run in this inner loop.  The engine heap cannot
            # change while only virtual events dispatch (a fault-window trip
            # aside, which re-reads it), so one peek covers a whole stretch
            # and the merge is one integer comparison per event (seqs are
            # unique, so a time tie is settled by seq alone).
            tripped = False
            while vheap:
                vtop = vheap[0]
                now = vtop[0]
                if now >= ltime and (now > ltime or vtop[1] > lseq):
                    break
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

                # Stage tests by range, most frequent (APPLY) first: two
                # or three tests a stage.
                if stage >= APP_B:
                    pop(vheap)
                    payload = vtop[4]
                    if stage == APP_B:
                        # --- APPLY (BEACON): the receiver's T4 -----------
                        ds.recv_b.value += 1
                        if record is not None:
                            record(now, EV_RX, ds.sid_q, _BEACON, payload)
                        if ds.apply(payload, now, vtop[5]):
                            # The fault window tripped and demoted ``ds``
                            # onto the engine heap: re-read its head.
                            tripped = True
                            break
                    else:
                        # --- APPLY (BEACON_MSB): learn the high half -----
                        ds.recv_m.value += 1
                        if record is not None:
                            record(now, EV_RX, ds.sid_q, _MSB, payload)
                        ds.receiver.remote_msb = payload
                    continue

                if stage >= ARR_B:
                    # --- ARRIVE: sample on the next edge, settle, RX
                    # pipeline.
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
                    n = ds.settle(n) + ds.rxpipe
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

                tick = vtop[4]
                if stage:
                    # --- CAPTURE: read gc on the TX slot, stamp the
                    # payload, fly; then hand the heap the direction's next
                    # queued capture.
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

                # --- PLAN: the beacon timeout on its tick — the sender's
                # slots, then the next timeout.
                slot = ds.slot(tick, True)
                msb = slot < 0
                if msb:
                    slot = -slot
                seg = ds.pseg
                sc = seg.start_count
                if sc < slot <= sc + seg.edge_count:
                    when = seg.first_edge_fs + (slot - sc - 1) * seg.period_fs
                else:
                    when = self._tot_p(ds, slot)
                capture = (when, seqc, CAP_B, ds, slot)
                seqc += stride
                # A capture planned on an earlier tick whose slot is still
                # ahead has not fired: queue behind it.  Else this one is
                # next; it fires after this PLAN, which therefore stays on
                # top for the heapreplace below.
                if ds.cap_slot > tick:
                    txq = ds.txq
                    if txq is None:
                        txq = ds.txq = deque()
                    txq.append(capture)
                else:
                    push(vheap, capture)
                if msb:
                    slot = ds.slot(tick)
                    txq = ds.txq
                    if txq is None:
                        txq = ds.txq = deque()
                    txq.append((self._tot_p(ds, slot), seqc, CAP_M, ds, slot))
                    seqc += stride
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

            if tripped:
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
