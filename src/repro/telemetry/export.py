"""Trace export: canonical JSONL and Chrome trace-event (Perfetto) JSON.

The JSONL format is the canonical on-disk trace: one canonical-JSON object
per line (sorted keys, no whitespace), so the file bytes — and therefore
:func:`trace_digest` — are stable for a given seed.  Layout::

    {"record":"trace-header","version":1,...,"subjects":[...]}
    {"a":..,"b":..,"k":<kind>,"s":<subject>,"t":<time_fs>}
    ...

The Chrome trace-event format is a lossy *view* for humans: open the file
at https://ui.perfetto.dev (or chrome://tracing).  Each subject becomes a
named thread; every record becomes an instant event with its integer
arguments attached.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple

from ..ioutil import atomic_open, atomic_write_text, canonical_json
from .events import KIND_NAMES, kind_name
from .trace import FIELDS, TraceRecord, TraceRecorder

TRACE_HEADER = "trace-header"

#: Chrome trace timestamps are microseconds; sim time is femtoseconds.
_FS_PER_US = 1_000_000_000


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
#: Records encoded at a time: the exporter's peak memory is one block.
_RECORD_BLOCK = 4096

#: Byte-equal to the UTF-8 ``canonical_json`` line of a record dict whose
#: five values are ints or int subclasses (``IntEnum``) — and only for those.
_RECORD_TEMPLATE = b'{"a":%d,"b":%d,"k":%d,"s":%d,"t":%d}\n'


def encode_block(flat: Sequence[int]) -> bytes:
    """The canonical JSON lines, as the UTF-8 bytes every artifact writes,
    of the records ``flat`` holds in :attr:`TraceRecorder.flat`'s layout.

    The one record encoder (trace file, its digest, flight dump): one ``%``
    over the record template repeated.  ``%d`` would coerce a
    ``bool``/``float`` and reject ``None``/``str``, so a block holding one
    goes through ``canonical_json`` record by record.
    """
    if all(issubclass(tp, int) and tp is not bool for tp in set(map(type, flat))):
        return _RECORD_TEMPLATE * (len(flat) // FIELDS) % tuple(flat)
    return "".join(
        canonical_json(dict(zip("abkst", flat[i:i + FIELDS]))) + "\n"
        for i in range(0, len(flat), FIELDS)
    ).encode("utf-8")


def encode_records(records: Iterable[TraceRecord]) -> bytes:
    """:func:`encode_block` of ``(t, k, s, a, b)`` record tuples."""
    return encode_block([x for t, k, s, a, b in records for x in (a, b, k, s, t)])


def _digest_key(tracer: TraceRecorder) -> Tuple[int, int]:
    # Records and subjects are append-only, so the two counts pin the
    # content (a wrapped ring keeps its length, not its ``recorded``).
    return tracer.recorded, len(tracer.subjects)


def _stream_trace(tracer: TraceRecorder, handle: Optional[IO[bytes]]) -> str:
    """Encode the trace once, teeing header and blocks to sha256 and ``handle``."""
    h = hashlib.sha256()
    header = canonical_json(
        {
            "record": TRACE_HEADER,
            "version": 1,
            "capacity": tracer.capacity,
            "recorded": tracer.recorded,
            "dropped": tracer.dropped,
            "kinds": {str(code): name for code, name in sorted(KIND_NAMES.items())},
            "subjects": tracer.subjects,
        }
    ).encode("utf-8") + b"\n"
    flat = tracer.flat
    step = FIELDS * _RECORD_BLOCK
    blocks = (
        encode_block(flat[i:i + step])
        for i in range(len(flat) - FIELDS * len(tracer), len(flat), step)
    )
    for chunk in chain([header], blocks):
        h.update(chunk)
        if handle is not None:
            handle.write(chunk)
    digest = h.hexdigest()
    tracer.digest_memo = (_digest_key(tracer), digest)
    return digest


def write_trace_jsonl(path: str, tracer: TraceRecorder) -> None:
    """Write the recorder to ``path`` as canonical JSONL (atomically)."""
    with atomic_open(path, binary=True) as handle:
        _stream_trace(tracer, handle)


def trace_digest(tracer: TraceRecorder) -> str:
    """sha256 over the exact JSONL bytes :func:`write_trace_jsonl` writes.

    A lookup when the recorder is unchanged since it was last encoded.
    """
    memo = tracer.digest_memo
    if memo is not None and memo[0] == _digest_key(tracer):
        return memo[1]
    return _stream_trace(tracer, None)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(
    records: Iterable[TraceRecord], subjects: List[str], pid: int = 1
) -> List[Dict[str, object]]:
    """Chrome trace-event dicts: thread-name metadata + instant events."""
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro-sim"},
        }
    ]
    for sid, name in enumerate(subjects):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": sid,
                "args": {"name": name},
            }
        )
    for time_fs, kind, subject, a, b in records:
        events.append(
            {
                "name": kind_name(kind),
                "ph": "i",
                "s": "t",
                "ts": time_fs / _FS_PER_US,
                "pid": pid,
                "tid": subject,
                "args": {"a": a, "b": b, "time_fs": time_fs},
            }
        )
    return events


def write_chrome_trace(
    path: str,
    records: Iterable[TraceRecord],
    subjects: List[str],
) -> None:
    """Write a Perfetto-loadable Chrome trace JSON file."""
    document = {
        "displayTimeUnit": "ns",
        "traceEvents": chrome_trace_events(records, subjects),
    }
    with atomic_open(path) as handle:
        handle.write(canonical_json(document) + "\n")


# ----------------------------------------------------------------------
# Metrics artifact
# ----------------------------------------------------------------------
def write_metrics_json(path: str, telemetry) -> None:
    """Write the digest-stable metrics snapshot (+ its digest) to ``path``.

    Only the digest-included section is written, so the file is
    byte-identical across two same-seed runs; wall-clock values are
    deliberately absent (they live in the Prometheus exposition only).
    """
    snapshot = telemetry.metrics_snapshot()
    document = {"digest": telemetry.metrics_digest(), "metrics": snapshot["metrics"]}
    atomic_write_text(path, canonical_json(document) + "\n")
