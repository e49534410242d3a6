"""Crash-safe file writes: write to a temp file, then ``os.replace``.

Every artifact this repo emits (trace JSONL, metrics snapshots, Prometheus
expositions, flight recordings, CSV series, checkpoint journals) goes
through these helpers so that a crash — including a SIGKILL — at any
instant leaves either the previous complete file or the new complete file
on disk, never a torn prefix.  ``os.replace`` is atomic on POSIX and
Windows when source and destination share a filesystem, which is
guaranteed here because the temp file is created in the destination's
directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator


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
