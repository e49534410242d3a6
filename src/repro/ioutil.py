"""Crash-safe file writes: whole files by rename, streams by append.

A *whole-file* artifact (trace JSONL, metrics snapshots, Prometheus
expositions, flight recordings, CSV series, a checkpoint journal's header)
is written to a temp file in the destination's directory, fsynced and
``os.replace``d into place, so a crash — including a SIGKILL — at any
instant leaves either the previous complete file or the new complete file,
never a torn prefix.  ``os.replace`` is atomic on POSIX and Windows when
source and destination share a filesystem, which the temp file's location
guarantees.

A *stream* (a scenario's snapshot stream, the checkpoint journal's
records) grows through :class:`JsonlAppender` instead: the path is opened
once, every batch of lines is one ``write`` handed to the kernel, and
nothing already written is written again.  What is on disk after process
death at any instant is a byte prefix of the uninterrupted file, so only
the final line can be torn, and the stream's readers skip a torn final
line.  ``close()`` fsyncs: a snapshot stream is durable once its scenario
has finished, a journal record before ``record()`` returns.

A *run directory* holds one file per scenario and artifact kind,
``<dir>/<scenario><suffix>``: :data:`ARTIFACT_KINDS` is the one place a
suffix is spelled, :func:`artifact_path` names a file for its writer and
:func:`scan_rundir` finds them all for the readers.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Dict, Iterator, Sequence

#: ``kind -> suffix`` of every per-scenario artifact in a run directory.
ARTIFACT_KINDS = {
    "trace": ".trace.jsonl",
    "metrics": ".metrics.json",
    "prom": ".prom",
    "flight": ".flight.jsonl",
    "failure_flight": ".failure.flight.jsonl",
    "insight": ".insight.md",
    "failure_insight": ".failure.insight.md",
    "snapshots": ".snapshots.jsonl",
    "slo": ".slo.json",
    "health": ".health.jsonl",
}

#: Longest suffix first, so ``x.failure.flight.jsonl`` is ``x``'s failure
#: flight and not the flight dump of a scenario named ``x.failure``.
_LONGEST_FIRST = sorted(ARTIFACT_KINDS.items(), key=lambda kv: -len(kv[1]))


def artifact_path(directory: str, scenario: str, kind: str) -> str:
    """``<directory>/<scenario><suffix of kind>``."""
    return os.path.join(directory, scenario + ARTIFACT_KINDS[kind])


def scan_rundir(directory: str) -> Dict[str, Dict[str, str]]:
    """``{scenario: {kind: path}}`` for every artifact in ``directory``.

    Scenarios come sorted by name; a path that is no directory (yet)
    holds nothing.
    """
    try:
        entries = sorted(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return {}
    found: Dict[str, Dict[str, str]] = {}
    for entry in entries:
        for kind, suffix in _LONGEST_FIRST:
            if entry.endswith(suffix):
                scenario = entry[: -len(suffix)]
                found.setdefault(scenario, {})[kind] = os.path.join(directory, entry)
                break
    return dict(sorted(found.items()))


def canonical_json(obj: object) -> str:
    """The one canonical JSON encoding: sorted keys, no whitespace.

    Every digest and every byte-compared artifact is built from this
    string, so two equal objects always serialize to the same bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _mkstemp_for(path: str) -> tuple:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    return tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )


@contextmanager
def atomic_open(
    path: str, binary: bool = False, encoding: str = "utf-8"
) -> Iterator[IO]:
    """Open a temp file for writing; rename it over ``path`` on success.

    On a clean exit the content is flushed, fsynced, and atomically moved
    into place.  If the body raises, the temp file is removed and the
    previous ``path`` (if any) is left untouched.
    """
    fd, tmp_path = _mkstemp_for(path)
    handle = None
    try:
        if binary:
            handle = os.fdopen(fd, "wb")
        else:
            handle = os.fdopen(fd, "w", encoding=encoding, newline="\n")
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_path, path)
    except BaseException:
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_open(path, binary=True) as handle:
        handle.write(data)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (``\\n`` newlines)."""
    with atomic_open(path, encoding=encoding) as handle:
        handle.write(text)


class JsonlAppender:
    """An append-only JSONL file, opened once and cut back to ``keep`` bytes.

    ``keep=0`` starts a new stream (whatever the path held is gone);
    a journal being resumed passes the end of its last complete record.
    Usable as a context manager.
    """

    def __init__(self, path: str, keep: int = 0) -> None:
        if keep:
            self._handle = open(path, "r+b")
            self._handle.truncate(keep)
            self._handle.seek(keep)
        else:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._handle = open(path, "wb")

    def append(self, lines: Sequence[str]) -> int:
        """Hand ``lines`` to the kernel in one write — they outlive the process
        from here — and return the stream's new length in bytes."""
        self._handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        self._handle.flush()
        return self._handle.tell()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def close(self) -> None:
        """fsync, then close.  Idempotent."""
        if not self._handle.closed:
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
