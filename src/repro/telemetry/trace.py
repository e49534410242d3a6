"""The trace recorder: a bounded ring buffer of integer event records.

Instrumented components hold an optional reference to a
:class:`TraceRecorder`; the disabled state is the ``None`` reference, so a
hot path pays exactly one ``is not None`` test per would-be record and
nothing else — the PR-1 fast path is untouched when tracing is off.

Records are the 5-int tuples of :mod:`repro.telemetry.events`.  The buffer
is a ``collections.deque`` with ``maxlen``: when full, the *oldest* records
are discarded (flight-recorder semantics — the most recent history is what
a post-mortem needs).  ``recorded`` keeps counting, so ``dropped`` reports
how much history fell off the front.

Subject names (ports, nodes, links, fault reasons) are interned to small
ints in first-use order, which is deterministic because the simulation
itself is: two same-seed runs produce the identical subject table and the
identical record stream.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Default ring capacity: enough for a few beacon intervals of a sizeable
#: network without letting a long run grow memory without bound.
DEFAULT_TRACE_CAPACITY = 65_536

#: One trace record: (time_fs, kind, subject, a, b).  Every field is an
#: ``int`` or an ``int`` subclass (``dtp.port`` puts a ``MessageType``
#: ``IntEnum`` in ``a``); both serialize as the bare number.  ``bool``,
#: ``float``, ``None`` and ``str`` are outside the contract: the exporter
#: still writes them as JSON, but off its fast path.
TraceRecord = Tuple[int, int, int, int, int]


class TraceRecorder:
    """Bounded, integer-only event recorder."""

    __slots__ = ("capacity", "records", "recorded", "_names", "_ids", "digest_memo")

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        #: Total records ever recorded (including ones the ring dropped).
        self.recorded = 0
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
        self.recorded += 1
        self.records.append((time_fs, kind, subject, a, b))

    @property
    def dropped(self) -> int:
        """Records lost off the front of the ring."""
        return self.recorded - len(self.records)

    def tail(self, n: Optional[int] = None) -> List[TraceRecord]:
        """The last ``n`` records (all buffered records when ``n`` is None)."""
        if n is None or n >= len(self.records):
            return list(self.records)
        return list(self.records)[-n:]

    def clear(self) -> None:
        self.records.clear()
        self.recorded = 0
        # The counts restart, so they no longer identify the old content.
        self.digest_memo = None

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder(capacity={self.capacity}, buffered={len(self.records)}, "
            f"recorded={self.recorded}, subjects={len(self._names)})"
        )
