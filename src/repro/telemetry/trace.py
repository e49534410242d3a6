"""The trace recorder: a bounded ring buffer of integer event records.

Instrumented components hold an optional reference to a
:class:`TraceRecorder`; the disabled state is the ``None`` reference, so a
hot path pays exactly one ``is not None`` test per would-be record and
nothing else — the PR-1 fast path is untouched when tracing is off.

Records are the 5-int tuples of :mod:`repro.telemetry.events`, kept flat:
one list of ints, ``a, b, k, s, t`` per record (export field order), so no
tuple per record stays alive for the GC to scan.  When full, the *oldest*
records are discarded (flight-recorder semantics — the most recent history
is what a post-mortem needs).  ``recorded`` keeps counting, so ``dropped``
reports how much history fell off the front.

Subject names (ports, nodes, links, fault reasons) are interned to small
ints in first-use order, which is deterministic because the simulation
itself is: two same-seed runs produce the identical subject table and the
identical record stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Default ring capacity: enough for a few beacon intervals of a sizeable
#: network without letting a long run grow memory without bound.
DEFAULT_TRACE_CAPACITY = 65_536

#: Ints per record in :attr:`TraceRecorder.flat`.
FIELDS = 5

#: Records held beyond ``capacity`` before the oldest are cut, a block at once.
_SPILL = 4096

#: One trace record: (time_fs, kind, subject, a, b).  Every field is an
#: ``int`` or an ``int`` subclass (``dtp.port`` puts a ``MessageType``
#: ``IntEnum`` in ``a``); both serialize as the bare number.  ``bool``,
#: ``float``, ``None`` and ``str`` are outside the contract: the exporter
#: still writes them as JSON, but off its fast path.
TraceRecord = Tuple[int, int, int, int, int]


class TraceRecorder:
    """Bounded, integer-only event recorder."""

    __slots__ = ("capacity", "flat", "_cut", "_limit", "_names", "_ids", "digest_memo")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        #: ``a, b, k, s, t`` per record, oldest first: the ring is its last
        #: ``capacity`` records, after ``_cut`` records cut off the front.
        self.flat: List[int] = []
        self._cut = 0
        self._limit = FIELDS * (capacity + _SPILL)
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: ``((recorded, subject count), sha256)`` of the last export, kept
        #: by :mod:`repro.telemetry.export`; stale once either count moves.
        self.digest_memo: Optional[Tuple[Tuple[int, int], str]] = None

    # ------------------------------------------------------------------
    # Subject interning
    # ------------------------------------------------------------------
    def subject_id(self, name: str) -> int:
        """Intern ``name`` and return its stable small-int id."""
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
        return sid

    def subject_name(self, sid: int) -> str:
        return self._names[sid]

    @property
    def subjects(self) -> List[str]:
        """The subject table, indexed by subject id."""
        return list(self._names)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, time_fs: int, kind: int, subject: int, a: int = 0, b: int = 0) -> None:
        """Append one record (oldest record drops when the ring is full)."""
        flat = self.flat
        flat += (a, b, kind, subject, time_fs)
        if len(flat) > self._limit:
            cut = len(flat) - FIELDS * self.capacity
            del flat[:cut]
            self._cut += cut // FIELDS

    @property
    def recorded(self) -> int:
        """Total records ever recorded (including ones the ring dropped)."""
        return self._cut + len(self.flat) // FIELDS

    @property
    def dropped(self) -> int:
        """Records lost off the front of the ring."""
        return self.recorded - len(self)

    @property
    def records(self) -> List[TraceRecord]:
        """The buffered records, oldest first."""
        return self.tail()

    def tail(self, n: Optional[int] = None) -> List[TraceRecord]:
        """The last ``n`` records (all buffered records when ``n`` is None)."""
        n = len(self) if n is None else min(n, len(self))
        if n < 0:
            raise ValueError("tail length must be >= 0")
        last = self.flat[len(self.flat) - FIELDS * n:]
        return list(zip(last[4::5], last[2::5], last[3::5], last[0::5], last[1::5]))

    def clear(self) -> None:
        self.flat.clear()
        self._cut = 0
        # The counts restart, so they no longer identify the old content.
        self.digest_memo = None

    def __len__(self) -> int:
        return min(len(self.flat) // FIELDS, self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder(capacity={self.capacity}, buffered={len(self)}, "
            f"recorded={self.recorded}, subjects={len(self._names)})"
        )
