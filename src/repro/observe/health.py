"""The run-health channel: shard and supervisor liveness, off the record.

Everything else this package emits is deterministic; health is the
deliberate exception.  The shard coordinator's window-protocol progress
(grants issued, stall counter, per-shard lag) and the resilience
supervisor's worker lifecycle (running / retrying / quarantined) are
exactly the signals an operator wants while a campaign runs, but the
supervisor's timestamps are wall-clock and its retry interleavings are
scheduling-dependent.  So the channel is *segregated*, the same way the
metrics registry segregates wall-clock families: health artifacts
(``*.health.jsonl``) carry ``"deterministic": false`` in their header and
are never part of identity diffs, digests, or the acceptance matrix.

Events use the ``EV_SHARD_*`` / ``EV_SUPERVISOR_*`` codes from
:mod:`repro.telemetry.events`; counters and gauges land in ``observe_*``
metric families on a private registry.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from ..ioutil import atomic_write_text, canonical_json
from ..telemetry.events import (
    EV_SHARD_GRANT,
    EV_SHARD_SERVICE,
    EV_SHARD_STALL,
    EV_SUPERVISOR_QUARANTINE,
    EV_SUPERVISOR_RETRY,
    EV_SUPERVISOR_TASK,
    SUPERVISOR_STATE_CODES,
    kind_name,
)
from ..telemetry.registry import MetricsRegistry
from ..telemetry.trace import TraceRecorder

#: Reverse map: state name -> code (``SUPERVISOR_STATE_CODES`` is code -> name).
_STATE_IDS = {name: code for code, name in SUPERVISOR_STATE_CODES.items()}


class HealthRecorder:
    """Collects shard/supervisor health events and ``observe_*`` metrics."""

    def __init__(self, source: str = "") -> None:
        self.source = source
        self.tracer = TraceRecorder()
        self.registry = MetricsRegistry()
        self._start_ns = time.monotonic_ns()
        self._rounds = self.registry.counter(
            "observe_shard_rounds_total", "window-protocol rounds completed"
        ).labels()
        self._stalls = self.registry.counter(
            "observe_shard_stalls_total", "rounds that advanced no grant"
        ).labels()
        self._grant = self.registry.gauge(
            "observe_shard_grant_fs", "current window grant (simulated fs)"
        ).labels()
        self._lag = self.registry.gauge(
            "observe_shard_lag_fs",
            "per-shard promise minus grant (simulated fs)",
            labelnames=("shard",),
        )
        self._states = self.registry.gauge(
            "observe_worker_state",
            "supervised task state code (running=0/done=1/retrying=2/quarantined=3)",
            labelnames=("task",),
        )
        self._retries = self.registry.counter(
            "observe_worker_retries_total", "supervised task retries scheduled"
        ).labels()
        self._quarantines = self.registry.counter(
            "observe_worker_quarantines_total", "supervised tasks quarantined"
        ).labels()

    def _now_ns(self) -> int:
        return time.monotonic_ns() - self._start_ns

    # ------------------------------------------------------------------
    # Shard coordinator (times are simulated fs — the window grant clock)
    # ------------------------------------------------------------------
    def shard_grant(self, round_no: int, grant_fs: int, advance_fs: int) -> None:
        self._rounds.inc()
        self._grant.set(grant_fs)
        self.tracer.record(
            grant_fs,
            EV_SHARD_GRANT,
            self.tracer.subject_id("coordinator"),
            round_no,
            advance_fs,
        )

    def shard_stall(self, grant_fs: int, stalls: int, limit: int) -> None:
        self._stalls.inc()
        self.tracer.record(
            grant_fs,
            EV_SHARD_STALL,
            self.tracer.subject_id("coordinator"),
            stalls,
            limit,
        )

    def shard_service(
        self, grant_fs: int, shard: int, replayed: int, lag_fs: int
    ) -> None:
        self._lag.labels(shard=shard).set(lag_fs)
        self.tracer.record(
            grant_fs,
            EV_SHARD_SERVICE,
            self.tracer.subject_id(f"shard/{shard}"),
            replayed,
            lag_fs,
        )

    # ------------------------------------------------------------------
    # Resilience supervisor (times are wall-clock ns since recorder start)
    # ------------------------------------------------------------------
    def task_state(self, name: str, state: str, attempt: int) -> None:
        code = _STATE_IDS[state]
        self._states.labels(task=name).set(code)
        self.tracer.record(
            self._now_ns(),
            EV_SUPERVISOR_TASK,
            self.tracer.subject_id(f"task/{name}"),
            code,
            attempt,
        )

    def task_retry(self, name: str, attempt: int, backoff_slots: int) -> None:
        self._retries.inc()
        self._states.labels(task=name).set(_STATE_IDS["retrying"])
        self.tracer.record(
            self._now_ns(),
            EV_SUPERVISOR_RETRY,
            self.tracer.subject_id(f"task/{name}"),
            attempt,
            backoff_slots,
        )

    def task_quarantine(self, name: str, reason: str, attempts: int) -> None:
        self._quarantines.inc()
        self._states.labels(task=name).set(_STATE_IDS["quarantined"])
        self.tracer.record(
            self._now_ns(),
            EV_SUPERVISOR_QUARANTINE,
            self.tracer.subject_id(f"task/{name}"),
            self.tracer.subject_id(f"reason/{reason}"),
            attempts,
        )

    # ------------------------------------------------------------------
    # Artifact
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Atomic JSONL dump: header, subject table, events, metrics."""
        lines = [
            canonical_json(
                {
                    "record": "health-header",
                    "version": 1,
                    "deterministic": False,
                    "source": self.source,
                    "events": self.tracer.recorded,
                    "dropped": self.tracer.dropped,
                }
            ),
            canonical_json(
                {"record": "subjects", "subjects": self.tracer.subjects}
            ),
        ]
        for t, kind, subject, a, b in self.tracer.records:
            lines.append(
                canonical_json(
                    {
                        "record": "event",
                        "t": t,
                        "kind": kind,
                        "name": kind_name(kind),
                        "subject": subject,
                        "a": a,
                        "b": b,
                    }
                )
            )
        lines.append(
            canonical_json(
                {"record": "metrics", "metrics": self.registry.snapshot()}
            )
        )
        atomic_write_text(path, "\n".join(lines) + "\n")


def read_health(path: str) -> Dict[str, object]:
    """Parse a health artifact: header, subjects, events, metrics."""
    header: Optional[Dict[str, object]] = None
    subjects: List[str] = []
    events: List[Dict[str, object]] = []
    metrics: Optional[Dict[str, object]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            kind = record.get("record")
            if kind == "health-header":
                header = record
            elif kind == "subjects":
                subjects = list(record.get("subjects", []))
            elif kind == "event":
                events.append(record)
            elif kind == "metrics":
                metrics = record.get("metrics")
    return {
        "header": header,
        "subjects": subjects,
        "events": events,
        "metrics": metrics,
    }
