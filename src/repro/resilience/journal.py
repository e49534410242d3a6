"""The checkpoint journal: crash-safe, resumable task results.

A journal is an append-only JSONL file.  Line 0 is a header identifying
the campaign it belongs to; every further line is one completed task's
result, keyed by ``(task name, seed, args digest)``:

.. code-block:: text

    {"record":"resilience-journal","version":1,"meta":{...}}
    {"record":"task-result","name":"baseline","seed":123,
     "args_sha256":"ab12...","result":{...}}

The header lands through :func:`repro.ioutil.atomic_write_text`, so the
path never holds a partial one; every record after it is *appended*
through :class:`repro.ioutil.JsonlAppender` — one line, one ``write``, one
fsync before ``record()`` returns — and nothing already on disk is written
again.  A record is complete once its newline is on disk: a SIGKILL at any
instant leaves a byte prefix of the uninterrupted journal, loading drops
whatever follows the last newline (the torn tail of an interrupted append)
without touching the file, and the next ``record()`` cuts the file back to
that point before it appends, so a torn fragment never becomes a corrupt
middle line.

Because entries are *keyed* rather than positional, resume order does not
matter: a supervisor restarted against a journal skips every task whose
key is present and re-runs the rest, and — tasks being deterministic
functions of their arguments — produces results and artifacts
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from ..experiments.parallel import ExperimentTask
from ..ioutil import JsonlAppender, atomic_write_text, canonical_json

JOURNAL_HEADER = "resilience-journal"
JOURNAL_RESULT = "task-result"
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """The journal is unreadable or belongs to a different campaign."""


def args_digest(task: ExperimentTask) -> str:
    """sha256 identifying a task's callable and arguments.

    Canonical JSON over the function's qualified name plus ``args`` and
    ``kwargs``; non-JSON values fall back to ``repr``, which is stable for
    the plain data (ints, strings, dicts, tuples) experiment tasks carry.
    """
    payload = {
        "fn": f"{task.fn.__module__}:{task.fn.__qualname__}",
        "args": task.args,
        "kwargs": task.kwargs,
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_key(task: ExperimentTask) -> str:
    """The journal key ``(name, seed, args digest)`` as one string."""
    seed = 0 if task.seed is None else int(task.seed)
    return f"{task.name}|{seed}|{args_digest(task)}"


class CheckpointJournal:
    """Completed-task results, persisted after every completion.

    ``meta`` identifies the campaign (base seed, scenario set, flags…).
    Opening an existing journal whose header meta differs raises
    :class:`JournalError` — resuming a different campaign from this file
    would silently mix results.
    """

    def __init__(self, path: str, meta: Optional[Dict[str, object]] = None):
        self.path = path
        self.meta: Dict[str, object] = dict(meta or {})
        self._results: Dict[str, object] = {}
        self._entries: List[Dict[str, object]] = []
        #: Byte offset the next record goes at: just past the last complete one.
        self._end = 0
        if not os.path.exists(path):
            header = {
                "record": JOURNAL_HEADER,
                "version": JOURNAL_VERSION,
                "meta": self.meta,
            }
            atomic_write_text(path, canonical_json(header) + "\n")
        self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Read the journal; never writes (the cut-back waits for ``record``)."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        *lines, torn = data.split(b"\n")
        self._end = len(data) - len(torn)
        if not lines:
            raise JournalError(f"{self.path}: empty journal (no complete header)")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise JournalError(f"{self.path}: unreadable header: {exc}") from exc
        if header.get("record") != JOURNAL_HEADER:
            raise JournalError(f"{self.path}: not a resilience journal")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {header.get('version')!r},"
                f" expected {JOURNAL_VERSION}"
            )
        stored_meta = header.get("meta", {})
        if self.meta and stored_meta != self.meta:
            raise JournalError(
                f"{self.path}: journal belongs to a different campaign"
                f" (header meta {stored_meta!r}, expected {self.meta!r})"
            )
        self.meta = dict(stored_meta)
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except ValueError:
                raise JournalError(
                    f"{self.path}:{lineno}: corrupt journal line"
                ) from None
            if entry.get("record") != JOURNAL_RESULT:
                raise JournalError(
                    f"{self.path}:{lineno}: unknown record"
                    f" {entry.get('record')!r}"
                )
            key = f"{entry['name']}|{entry['seed']}|{entry['args_sha256']}"
            self._results[key] = entry["result"]
            self._entries.append(entry)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def has(self, key: str) -> bool:
        return key in self._results

    def result(self, key: str) -> object:
        return self._results[key]

    @property
    def entries(self) -> List[Dict[str, object]]:
        """The journal entries in completion order (read-only view)."""
        return list(self._entries)

    def record(self, key: str, result: object) -> None:
        """Persist one completed task's result (JSON-serializable only)."""
        name, seed, digest = key.rsplit("|", 2)
        entry = {
            "record": JOURNAL_RESULT,
            "name": name,
            "seed": int(seed),
            "args_sha256": digest,
            "result": result,
        }
        try:
            line = canonical_json(entry)
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"task {name!r}: result is not JSON-serializable ({exc});"
                " journaled tasks must return plain data"
            ) from exc
        with JsonlAppender(self.path, keep=self._end) as stream:
            self._end = stream.append([line])
        self._results[key] = result
        self._entries.append(entry)
