"""A deterministic discrete-event simulation engine.

The engine is a classic event-queue simulator:

* time is an integer number of femtoseconds (see :mod:`repro.sim.units`);
* events are callbacks scheduled at absolute times;
* ties are broken by insertion order, which makes runs deterministic;
* events may be cancelled, which marks them dead in place (lazy deletion).

The engine knows nothing about networks or clocks; everything above it is
built from plain callbacks.

Performance notes (this module is the hottest loop in the repo):

* The heap holds plain ``(time, seq, fn, args, event)`` tuples, so
  :mod:`heapq` sift operations compare C-level ints instead of calling
  ``Event.__lt__``.  ``seq`` is unique per event, so a comparison never
  reaches the third element, and dispatch reads the callback straight
  from the tuple instead of through two attribute loads.
* ``run_until`` binds the queue, ``heappop`` and the dispatch loop state
  to locals; attribute lookups in the loop are kept to the event being
  dispatched.
* Cancelled events stay in the heap (lazy deletion) but are counted;
  when they outnumber the live entries the heap is compacted in one
  O(n) ``heapify`` pass, so cancel-heavy workloads (e.g. beacon
  timeouts rescheduled every interval) cannot bloat the queue.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Compact the heap only past this size; below it bloat is irrelevant.
_COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation engine."""


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code holds on to them only to call
    :meth:`Simulator.cancel`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time} seq={self.seq} {state} {self.fn!r}>"


class _Uncancellable:
    """Shared cancel-state placeholder for fire-and-forget events.

    ``post_at`` entries carry this singleton where cancellable entries
    carry their :class:`Event`, so the dispatch loop's ``cancelled``
    check works uniformly without allocating a handle per event.
    """

    __slots__ = ()
    cancelled = False


_UNCANCELLABLE = _Uncancellable()


class Simulator:
    """Event-driven simulator with femtosecond-resolution integer time."""

    #: What ``seq`` is, for the merged loop (:meth:`attach_fastpath`).
    #: ``None``: one global counter, stride 1.  An engine whose ``seq`` packs
    #: the allocating instant (``repro.shard.engine.ShardSimulator``) sets
    #: ``(stride, instant, base)``: allocations step by ``stride``, and the
    #: first dispatch at a later instant ``t`` than its ``_alloc_time``
    #: rebases the counter to ``t * instant + base``.  Such an engine is also
    #: told each dispatch's own seq (``_dispatch_seq``, real or virtual) and
    #: counts the real ones (``dispatched``).
    key_layout: Optional[Tuple[int, int, int]] = None

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple, Event]] = []
        self._cancelled_in_queue = 0
        #: Optional dispatch profiler (``repro.telemetry.DispatchProfile``):
        #: any object with a ``count(fn)`` method.  ``None`` keeps the
        #: dispatch loops on a branch that never touches it.
        self.profile: Optional[Any] = None
        #: External virtual-event source: any object with
        #: ``run_merged(time_fs)`` (see :meth:`attach_fastpath`).
        self.fastpath: Optional[Any] = None

    @property
    def now(self) -> int:
        """Current simulation time in femtoseconds."""
        return self._now

    def schedule(self, delay_fs: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_fs`` femtoseconds from now."""
        if delay_fs < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_fs})")
        time_fs = self._now + delay_fs
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_fs, seq, fn, args)
        heapq.heappush(self._queue, (time_fs, seq, fn, args, event))
        return event

    def schedule_at(self, time_fs: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time_fs``."""
        if time_fs < self._now:
            raise SimulationError(
                f"cannot schedule at {time_fs} fs; current time is {self._now} fs"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_fs, seq, fn, args)
        heapq.heappush(self._queue, (time_fs, seq, fn, args, event))
        return event

    def post_at(self, time_fs: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancel handle is created.

        Ordering is identical to :meth:`schedule_at` (the event consumes a
        ``seq`` the same way); the only difference is that the event cannot
        be cancelled, which lets hot paths skip one object allocation per
        message.
        """
        if time_fs < self._now:
            raise SimulationError(
                f"cannot schedule at {time_fs} fs; current time is {self._now} fs"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time_fs, seq, fn, args, _UNCANCELLABLE))

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (idempotent, ``None``-safe)."""
        if event is not None and not event.cancelled:
            event.cancelled = True
            self._cancelled_in_queue += 1
            queue = self._queue
            if (
                len(queue) > _COMPACT_MIN_QUEUE
                and self._cancelled_in_queue * 2 > len(queue)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (deterministic: seq is a
        total order, so the rebuilt heap pops in exactly the same sequence
        the lazy-deletion heap would have).  Mutates the list in place:
        ``run_until`` holds a local reference to it across callbacks."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[4].cancelled]
        heapq.heapify(queue)
        self._cancelled_in_queue = 0

    def step(self) -> bool:
        """Run the single next event.  Returns False if the queue is empty."""
        if self.fastpath is not None:
            raise SimulationError(
                "a fastpath source is attached: single-stepping would skip its "
                "virtual events; advance with run_until(), or build the "
                'network with backend="scalar"'
            )
        queue = self._queue
        pop = heapq.heappop
        profile = self.profile
        while queue:
            time_fs, _seq, fn, args, event = pop(queue)
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._now = time_fs
            if profile is not None:
                profile.count(fn)
            fn(*args)
            return True
        return False

    def run_until(self, time_fs: int) -> None:
        """Run every event with ``event.time <= time_fs``; advance to it.

        Time is left at exactly ``time_fs`` even if the queue drains early,
        so periodic observers see a consistent final timestamp.
        """
        if self.fastpath is not None:
            # The merged loop lives on the source, which owns the virtual
            # heap and runs the batched stages around it.
            return self.fastpath.run_merged(time_fs)
        if time_fs < self._now:
            raise SimulationError(
                f"run_until({time_fs}) is in the past (now={self._now})"
            )
        queue = self._queue
        pop = heapq.heappop
        profile = self.profile
        if profile is None:
            # Hot path: kept free of any telemetry reads so enabling the
            # feature elsewhere cannot slow an unprofiled run.
            while queue:
                entry = queue[0]
                when = entry[0]
                if when > time_fs:
                    break
                pop(queue)
                if entry[4].cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                self._now = when
                entry[2](*entry[3])
        else:
            count = profile.count
            while queue:
                entry = queue[0]
                when = entry[0]
                if when > time_fs:
                    break
                pop(queue)
                if entry[4].cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                self._now = when
                count(entry[2])
                entry[2](*entry[3])
        self._now = time_fs

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty (or ``max_events``); return count run."""
        count = 0
        while (max_events is None or count < max_events) and self.step():
            count += 1
        return count

    def take_seq(self) -> int:
        """Allocate (and consume) the next event sequence number.

        External co-simulators (see :meth:`attach_fastpath`) use this to
        give their virtual events sequence numbers from the *same* counter
        heap events draw from, so a merged ``(time, seq)`` order is a total
        order identical to the one a pure heap run would produce.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def attach_fastpath(self, source: Any) -> None:
        """Attach the virtual-event source :meth:`run_until` hands over to.

        The source (``repro.fastpath.FastpathCoordinator``; its module
        docstring argues the bit-identity) keeps batched DTP port work as
        *virtual* events in its own queue, numbered from this engine's
        counter, and owns the one loop that merges them with the heap by
        ``(time, seq)``.  While it is attached :meth:`step` (and so
        :meth:`run`) raises: stepping the heap alone would skip them.
        """
        if self.fastpath is not None and self.fastpath is not source:
            raise SimulationError("a fastpath source is already attached")
        self.fastpath = source

    def adopt(self, time_fs: int, seq: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Queue ``fn(*args)`` under a sequence number it has already drawn.

        The source hands a pending virtual event back to the heap this way
        when a direction leaves the batched path: the event keeps its place
        in the ``(time, seq)`` order — same-instant ties against events that
        stay virtual included — and the counter is not advanced, so it
        stays equal to a scalar run's.
        """
        event = Event(time_fs, seq, fn, args)
        heapq.heappush(self._queue, (time_fs, seq, fn, args, event))
        return event


#: Former subclass name, kept only because the frozen ``e2e_bench/layers.py``
#: constructs it; the next ``benchmark`` PR drops it (ROADMAP ledger (c)).
MacroTickSimulator = Simulator
