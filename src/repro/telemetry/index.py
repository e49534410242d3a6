"""An indexed, read-only view over a trace record stream.

The raw artifacts (``TraceRecorder`` rings, canonical trace JSONL, flight
dumps) are flat streams of ``(time_fs, kind, subject, a, b)`` tuples.  The
analytics in :mod:`repro.insight` repeatedly ask questions like "the latest
EV_TX on port ``n1->n0`` before t with payload p" — :class:`TraceIndex`
answers them in O(log n) by bucketing records per ``(kind, subject)`` and
bisecting on time.  Everything here is pure integer bookkeeping over an
immutable record list, so index results are as deterministic as the trace
itself.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Optional, Sequence, Tuple

from .events import kind_name
from .flight import FlightDump, is_flight, load_flight
from .trace import TraceRecord, TraceRecorder


class TraceIndex:
    """Immutable index over a trace record stream and its subject table."""

    __slots__ = (
        "records",
        "subjects",
        "header",
        "_ids",
        "_streams",
        "_stream_times",
        "_kind_counts",
    )

    def __init__(
        self,
        records: Sequence[TraceRecord],
        subjects: Sequence[str],
        header: Optional[Dict[str, object]] = None,
    ) -> None:
        self.records: List[TraceRecord] = list(records)
        self.subjects: List[str] = list(subjects)
        self.header: Dict[str, object] = dict(header or {})
        self._ids: Dict[str, int] = {name: sid for sid, name in enumerate(self.subjects)}
        streams: Dict[Tuple[int, int], List[TraceRecord]] = {}
        kind_counts: Dict[int, int] = {}
        for record in self.records:
            kind = record[1]
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            streams.setdefault((kind, record[2]), []).append(record)
        self._streams = streams
        self._stream_times: Dict[Tuple[int, int], List[int]] = {
            key: [record[0] for record in stream] for key, stream in streams.items()
        }
        self._kind_counts = kind_counts

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_recorder(cls, tracer: TraceRecorder) -> "TraceIndex":
        """Index a live recorder (a snapshot: later records are not seen)."""
        header = {
            "capacity": tracer.capacity,
            "recorded": tracer.recorded,
            "dropped": tracer.dropped,
        }
        return cls(tracer.tail(), tracer.subjects, header=header)

    @classmethod
    def from_flight(cls, dump: FlightDump) -> "TraceIndex":
        """Index a parsed flight artifact (header keys carry over)."""
        header = dict(dump.header)
        header.setdefault("recorded", header.get("trace_recorded", len(dump.records)))
        header.setdefault("dropped", header.get("trace_dropped", 0))
        return cls(dump.records, dump.subjects, header=header)

    @classmethod
    def load(cls, path: str) -> "TraceIndex":
        """Load a trace JSONL *or* flight artifact, sniffing the header.

        A trace starts with a ``"record"``-tagged header; every line after
        it without a ``"record"`` tag is a ``t``/``k``/``s``/``a``/``b``
        record, and tagged lines are skipped.
        """
        if is_flight(path):
            return cls.from_flight(load_flight(path))
        records: List[TraceRecord] = []
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            if "record" not in header:
                raise ValueError(f"{path}: first line is not a header")
            for line in handle:
                obj = json.loads(line)
                if "record" not in obj:
                    records.append((obj["t"], obj["k"], obj["s"], obj["a"], obj["b"]))
        return cls(records, list(header.get("subjects", [])), header=header)

    # ------------------------------------------------------------------
    # Subjects
    # ------------------------------------------------------------------
    def subject_id(self, name: str) -> Optional[int]:
        """The interned id of ``name`` (None when it never appeared)."""
        return self._ids.get(name)

    def subject_name(self, sid: int) -> str:
        if 0 <= sid < len(self.subjects):
            return self.subjects[sid]
        return f"subject-{sid}"

    def port_subjects(self) -> List[str]:
        """Subject names that look like ports (``node->peer``), in id order."""
        return [name for name in self.subjects if "->" in name]

    @staticmethod
    def port_node(port_name: str) -> str:
        """The owning node of a port subject (``n0`` for ``n0->n1``)."""
        return port_name.split("->", 1)[0]

    @staticmethod
    def port_peer(port_name: str) -> str:
        """The far-end node of a port subject (``n1`` for ``n0->n1``)."""
        return port_name.split("->", 1)[1]

    @staticmethod
    def reverse_port(port_name: str) -> str:
        """The opposite direction's port name (``n1->n0`` for ``n0->n1``)."""
        node, peer = port_name.split("->", 1)
        return f"{peer}->{node}"

    def ports_of(self, node: str) -> List[str]:
        """All port subjects owned by ``node``, in id order."""
        prefix = f"{node}->"
        return [name for name in self.subjects if name.startswith(prefix)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stream(self, kind: int, subject: str) -> List[TraceRecord]:
        """All records of ``kind`` on the named subject, in time order."""
        sid = self._ids.get(subject)
        if sid is None:
            return []
        return list(self._streams.get((kind, sid), ()))

    def of_kind(self, kind: int) -> List[TraceRecord]:
        """All records of ``kind`` across subjects, back in stream order."""
        merged = [record for record in self.records if record[1] == kind]
        return merged

    def streams(self) -> List[Tuple[int, int, List[TraceRecord]]]:
        """``(kind, subject id, records)`` per stream, in first-seen order.

        Bulk consumers (timeline reconstruction) use this to touch each
        stream once instead of dispatching per record; within a stream the
        records are already in time order.
        """
        return [
            (kind, sid, list(stream))
            for (kind, sid), stream in self._streams.items()
        ]

    def last_before(
        self,
        kind: int,
        subject: str,
        time_fs: int,
        inclusive: bool = False,
    ) -> Optional[TraceRecord]:
        """Latest record of ``kind`` on ``subject`` before ``time_fs``.

        With ``inclusive`` the record may share the timestamp (the last of
        the co-timed ones wins, matching stream order).
        """
        sid = self._ids.get(subject)
        if sid is None:
            return None
        times = self._stream_times.get((kind, sid))
        if not times:
            return None
        if inclusive:
            pos = bisect.bisect_right(times, time_fs)
        else:
            pos = bisect.bisect_left(times, time_fs)
        if pos == 0:
            return None
        return self._streams[(kind, sid)][pos - 1]

    def at(self, kind: int, subject: str, time_fs: int) -> List[TraceRecord]:
        """Records of ``kind`` on ``subject`` stamped exactly ``time_fs``."""
        sid = self._ids.get(subject)
        if sid is None:
            return []
        times = self._stream_times.get((kind, sid))
        if not times:
            return []
        lo = bisect.bisect_left(times, time_fs)
        hi = bisect.bisect_right(times, time_fs)
        return self._streams[(kind, sid)][lo:hi]

    def last_match_before(
        self,
        kind: int,
        subject: str,
        time_fs: int,
        a: Optional[int] = None,
        b: Optional[int] = None,
        inclusive: bool = False,
    ) -> Optional[TraceRecord]:
        """Like :meth:`last_before` but requiring ``a``/``b`` field matches.

        Scans backwards from the time cut, so the cost is proportional to
        how far back the match lies (payload matches in beacon chains are
        typically the immediately preceding record).
        """
        sid = self._ids.get(subject)
        if sid is None:
            return None
        times = self._stream_times.get((kind, sid))
        if not times:
            return None
        if inclusive:
            pos = bisect.bisect_right(times, time_fs)
        else:
            pos = bisect.bisect_left(times, time_fs)
        stream = self._streams[(kind, sid)]
        for index in range(pos - 1, -1, -1):
            record = stream[index]
            if a is not None and record[3] != a:
                continue
            if b is not None and record[4] != b:
                continue
            return record
        return None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def span_fs(self) -> Tuple[int, int]:
        """(first, last) record timestamps; (0, 0) when empty."""
        if not self.records:
            return (0, 0)
        return (self.records[0][0], self.records[-1][0])

    @property
    def recorded(self) -> int:
        return int(self.header.get("recorded", len(self.records)))

    @property
    def dropped(self) -> int:
        return int(self.header.get("dropped", 0))

    def describe(self) -> List[str]:
        """The trace's census: record accounting, subjects, span and the
        record count of every event kind (``repro insight timeline`` and
        the run report print it first)."""
        first, last = self.span_fs
        lines = [
            f"records: {len(self.records)} indexed"
            f" ({self.recorded} recorded, {self.dropped} dropped)",
            f"subjects: {len(self.subjects)}",
            f"span: {first} fs .. {last} fs",
        ]
        for kind in sorted(self._kind_counts):
            lines.append(f"  {kind_name(kind):20s} {self._kind_counts[kind]:8d}")
        return lines

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceIndex(records={len(self.records)}, "
            f"subjects={len(self.subjects)})"
        )
