"""The flight recorder: post-mortem artifacts for invariant violations.

When a campaign's invariant checker records a violation (or the
supervisor quarantines a scenario), the flight recorder dumps a single
JSONL artifact holding everything a post-mortem needs:

* a header (scenario, seed, sim time, trace accounting),
* the last N trace records with their subject table,
* the full metrics snapshot (digest-included section only),
* the violation context the invariant checker assembled.

Every line is canonical JSON (sorted keys, no whitespace) and every value
derives from sim time and seed-derived streams, so two same-seed runs write
byte-identical artifacts.  ``load_flight`` → ``dump_bytes`` round-trips to
the exact file bytes, which the tests assert.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..ioutil import atomic_write_bytes, canonical_json
from .export import encode_records
from .trace import TraceRecord

FLIGHT_HEADER = "flight-header"
FLIGHT_TRACE = "flight-trace"
FLIGHT_METRICS = "flight-metrics"
FLIGHT_CONTEXT = "flight-context"

#: Default number of trailing trace records carried in an artifact.
DEFAULT_FLIGHT_TAIL = 4096


class FlightDump:
    """A parsed flight-recorder artifact."""

    __slots__ = ("header", "subjects", "records", "metrics", "context")

    def __init__(
        self,
        header: Dict[str, object],
        subjects: List[str],
        records: List[TraceRecord],
        metrics: Dict[str, object],
        context: Dict[str, object],
    ) -> None:
        self.header = header
        self.subjects = subjects
        self.records = records
        self.metrics = metrics
        self.context = context

    def dump_bytes(self) -> bytes:
        """The exact artifact bytes (round-trip target for tests)."""
        return b"".join((
            _line(dict(self.header, record=FLIGHT_HEADER)),
            _line({"record": FLIGHT_TRACE, "subjects": self.subjects}),
            encode_records(self.records),
            _line({"metrics": self.metrics, "record": FLIGHT_METRICS}),
            _line({"context": self.context, "record": FLIGHT_CONTEXT}),
        ))


def _line(obj: Dict[str, object]) -> bytes:
    return canonical_json(obj).encode("utf-8") + b"\n"


def build_flight(
    telemetry,
    scenario: str,
    seed: int,
    time_fs: int,
    context: Optional[Dict[str, object]] = None,
    last_n: int = DEFAULT_FLIGHT_TAIL,
) -> FlightDump:
    """Assemble a :class:`FlightDump` from live telemetry state."""
    tracer = telemetry.tracer
    if tracer is not None:
        records = tracer.tail(last_n)
        subjects = tracer.subjects
        recorded = tracer.recorded
        dropped = tracer.dropped
    else:
        records = []
        subjects = []
        recorded = 0
        dropped = 0
    header: Dict[str, object] = {
        "version": 1,
        "scenario": scenario,
        "seed": seed,
        "time_fs": time_fs,
        "trace_recorded": recorded,
        "trace_dropped": dropped,
        "trace_tail": len(records),
        "metrics_digest": telemetry.metrics_digest(),
    }
    return FlightDump(
        header=header,
        subjects=subjects,
        records=records,
        metrics=telemetry.metrics_snapshot()["metrics"],
        context=dict(context or {}),
    )


def dump_flight(
    path: str,
    telemetry,
    scenario: str,
    seed: int,
    time_fs: int,
    context: Optional[Dict[str, object]] = None,
    last_n: int = DEFAULT_FLIGHT_TAIL,
) -> FlightDump:
    """Write a flight-recorder artifact to ``path`` and return the dump.

    The write is atomic (temp file + ``os.replace``): a crash while
    dumping never leaves a torn artifact behind.
    """
    dump = build_flight(
        telemetry, scenario, seed, time_fs, context=context, last_n=last_n
    )
    atomic_write_bytes(path, dump.dump_bytes())
    return dump


def is_flight(path: str) -> bool:
    """Whether ``path`` starts with a flight header (else: a trace)."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    return bool(first.strip()) and json.loads(first).get("record") == FLIGHT_HEADER


def load_flight(path: str) -> FlightDump:
    """Parse a flight artifact back into a :class:`FlightDump`.

    ``load_flight(p).dump_bytes()`` equals the bytes of ``p`` — the
    round-trip contract the tier of exporter tests relies on.
    """
    header: Dict[str, object] = {}
    subjects: List[str] = []
    records: List[TraceRecord] = []
    metrics: Dict[str, object] = {}
    context: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle):
            obj = json.loads(line)
            tag = obj.get("record")
            if lineno == 0:
                if tag != FLIGHT_HEADER:
                    raise ValueError(f"{path}: not a flight artifact")
                header = {k: v for k, v in obj.items() if k != "record"}
            elif tag == FLIGHT_TRACE:
                subjects = list(obj["subjects"])
            elif tag == FLIGHT_METRICS:
                metrics = obj["metrics"]
            elif tag == FLIGHT_CONTEXT:
                context = obj["context"]
            elif tag is None:
                records.append((obj["t"], obj["k"], obj["s"], obj["a"], obj["b"]))
            else:
                raise ValueError(f"{path}:{lineno + 1}: unknown record {tag!r}")
    return FlightDump(
        header=header,
        subjects=subjects,
        records=records,
        metrics=metrics,
        context=context,
    )
