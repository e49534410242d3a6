"""Streaming snapshot taps: live, deterministic run telemetry.

A :class:`SnapshotTap` writes one JSONL stream per scenario
(``<name>.snapshots.jsonl``) while the run executes: a header record,
one ``snapshot`` record per sampler-grid instant, and a ``final`` record
once the result is assembled.  The stream is part of the deterministic
artifact surface, so every field is an integer keyed to *simulated*
time — no wall-clock values ever enter it (wall-clock health lives in
the separate, explicitly nondeterministic ``repro.observe.health``
channel).

Determinism across backends comes from *where* the tap samples: the
probe is driven from the invariant checker's existing sampler grid —
``repro.faultlab.campaign.sample_grid``, called by the serial sampler
event and by the coordinator's ``_SAMPLE`` merge-walk branch in
``repro.shard`` at the same simulated instants with the same checker
state, so the scalar, batched and sharded backends emit byte-identical
streams.

Writes are batched (every ``DEFAULT_FLUSH_EVERY`` records) and each batch
is appended through :class:`repro.ioutil.JsonlAppender` — the writer under
the resilience checkpoint journal too: one ``write`` of the pending lines
handed to the kernel, nothing already written rewritten.  After process
death at any instant the file is a byte prefix of the finished stream, so
a watcher (or a resume) may meet a torn *final* line and
:func:`read_snapshots` skips it.  The stream's one fsync is at close:
inside ``finalize`` for a run that finished, in the driver's ``finally``
for one that raised.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..ioutil import JsonlAppender, artifact_path, canonical_json
from .histograms import OffsetHistogram

#: Flush the stream every N snapshot records (plus once at finalize).
DEFAULT_FLUSH_EVERY = 16

#: The probe's snapshot record.  Byte-equal to ``canonical_json`` of it when
#: every value is exactly an ``int`` (``worst_units`` may be ``None``) -- and
#: used only then: ``%d`` would coerce a ``bool`` or a ``float``.  A field
#: added to :meth:`ObserveProbe.observe_links` is added here and to the
#: hypothesis test in ``tests/test_observe.py`` together.
_SNAPSHOT_INTS = (
    "checks_run", "in_bound_total", "index", "links", "max_offset_units",
    "observed_total", "t_fs", "trace_recorded", "violations_total",
)
_SNAPSHOT_TEMPLATE = (
    '{"checks_run":%d,"in_bound_total":%d,"index":%d,"links":%d,'
    '"max_offset_units":%d,"observed_total":%d,"record":"snapshot","t_fs":%d,'
    '"trace_recorded":%d,"violations_total":%d,"worst_units":%s}'
)
_SNAPSHOT_KEYS = frozenset(_SNAPSHOT_INTS + ("worst_units",))
_snapshot_ints = itemgetter(*_SNAPSHOT_INTS)


def encode_snapshot(fields: Dict[str, object]) -> str:
    """The canonical JSON line of a ``snapshot`` record with these ``fields``."""
    if fields.keys() == _SNAPSHOT_KEYS:
        ints = _snapshot_ints(fields)
        worst = fields["worst_units"]
        if set(map(type, ints)) == {int} and (worst is None or type(worst) is int):
            return _SNAPSHOT_TEMPLATE % (*ints, "null" if worst is None else worst)
    return canonical_json({"record": "snapshot", **fields})


class SnapshotTap:
    """Incremental JSONL writer for one scenario's snapshot stream."""

    def __init__(self, path: str, header: Dict[str, object]) -> None:
        self.path = path
        self._stream = JsonlAppender(path)
        self._pending: List[str] = [
            canonical_json({"record": "snapshot-header", "version": 1, **header})
        ]
        self.flushes = 0

    def emit(self, fields: Dict[str, object]) -> None:
        self._append(encode_snapshot(fields))
        if len(self._pending) >= DEFAULT_FLUSH_EVERY:
            self.flush()

    def finalize(self, fields: Dict[str, object]) -> None:
        self._append(canonical_json({"record": "final", **fields}))
        self.close()

    def _append(self, line: str) -> None:
        if self._stream.closed:
            raise ValueError(f"snapshot tap {self.path!r} is closed")
        self._pending.append(line)

    def flush(self) -> None:
        if not self._pending:
            return
        self._stream.append(self._pending)
        self._pending = []
        self.flushes += 1

    def close(self) -> None:
        """Flush what is pending, fsync and close.  Idempotent: whoever made
        the tap calls this in a ``finally``, after ``finalize`` or instead of it."""
        if not self._stream.closed:
            self.flush()
            self._stream.close()


class ObserveProbe:
    """Accumulates offset distributions and emits snapshot records.

    Fed once per sampler-grid instant with the adjacent-link offsets the
    invariant checker can currently vouch for (see
    ``InvariantChecker.sample``).  All state is integer-only and
    derived from simulated time, so two probes fed the same grid produce
    identical summaries regardless of backend.
    """

    def __init__(self, tap: Optional[SnapshotTap] = None) -> None:
        self.tap = tap
        self.aggregate = OffsetHistogram()
        self.links: Dict[str, OffsetHistogram] = {}
        self.link_in_bound: Dict[str, int] = {}
        self.samples = 0
        self.observed_total = 0
        self.in_bound_total = 0
        self.first_checkable_fs = -1

    def observe_links(
        self,
        now_fs: int,
        worst: Optional[int],
        links: Sequence[Tuple[str, str, int, int]],
        checks_run: int = 0,
        violations_total: int = 0,
        trace_recorded: int = 0,
    ) -> None:
        """Record one grid instant: ``links`` is ``[(a, b, offset, bound)]``."""
        if worst is not None and self.first_checkable_fs < 0:
            self.first_checkable_fs = now_fs
        for a, b, offset, bound in links:
            key = f"{a}-{b}"
            hist = self.links.get(key)
            if hist is None:
                hist = self.links[key] = OffsetHistogram()
                self.link_in_bound[key] = 0
            hist.observe(offset)
            self.aggregate.observe(offset)
            self.observed_total += 1
            if offset <= bound:
                self.in_bound_total += 1
                self.link_in_bound[key] += 1
        index = self.samples
        self.samples += 1
        if self.tap is not None:
            self.tap.emit(
                {
                    "t_fs": now_fs,
                    "index": index,
                    "worst_units": worst,
                    "links": len(links),
                    "observed_total": self.observed_total,
                    "in_bound_total": self.in_bound_total,
                    "max_offset_units": self.aggregate.max_value,
                    "checks_run": checks_run,
                    "violations_total": violations_total,
                    "trace_recorded": trace_recorded,
                }
            )

    def summary(self) -> Dict[str, object]:
        """The ``result["observe"]`` section (digest-stable, ints only)."""
        total = self.observed_total
        agg = self.aggregate
        links = {}
        for key in sorted(self.links):
            hist = self.links[key]
            links[key] = {
                "observed": hist.total,
                "in_bound": self.link_in_bound[key],
                "max_units": hist.max_value,
                "p99_units": hist.quantile_ppm(990_000),
                "hist": hist.as_dict(),
            }
        return {
            "samples": self.samples,
            "observed_total": total,
            "in_bound_total": self.in_bound_total,
            "in_bound_ppm": (
                self.in_bound_total * 1_000_000 // total if total else -1
            ),
            "max_offset_units": agg.max_value,
            "first_checkable_fs": self.first_checkable_fs,
            "quantiles_units": {
                "p50": agg.quantile_ppm(500_000),
                "p90": agg.quantile_ppm(900_000),
                "p99": agg.quantile_ppm(990_000),
                "p100": agg.max_value,
            },
            "histogram": agg.as_dict(),
            "links": links,
        }

    def close(self) -> None:
        """Close the tap, if any (see :meth:`SnapshotTap.close`)."""
        if self.tap is not None:
            self.tap.close()

    def finalize(self, result: Dict[str, object]) -> None:
        """Write the ``final`` record from the assembled scenario result."""
        if self.tap is None:
            return
        telemetry = result.get("telemetry")
        self.tap.finalize(
            {
                "scenario": result.get("scenario"),
                "seed": result.get("seed"),
                "duration_fs": result.get("duration_fs"),
                "violations_total": result.get("violations_total"),
                "recovery": result.get("recovery"),
                "observe": result.get("observe"),
                "metrics_digest": (
                    telemetry.get("metrics_digest") if telemetry else None
                ),
                "trace_digest": (
                    telemetry.get("trace_digest") if telemetry else None
                ),
            }
        )


def snapshot_path(snapshot_dir: str, scenario: str) -> str:
    return artifact_path(snapshot_dir, scenario, "snapshots")


def make_tap(
    snapshot_dir: str, name: str, seed: int, duration_fs: int, sample_interval_fs: int
) -> SnapshotTap:
    """A tap for one scenario run, with the standard header fields."""
    return SnapshotTap(
        snapshot_path(snapshot_dir, name),
        {
            "scenario": name,
            "seed": seed,
            "duration_fs": duration_fs,
            "sample_interval_fs": sample_interval_fs,
        },
    )


def read_snapshots(path: str) -> Dict[str, object]:
    """Parse a snapshot stream: header, snapshot list, final (or None).

    Skips undecodable lines: the stream is appended to, so a reader racing
    the writer, or one that finds what a killed run left, may meet a torn
    final line.
    """
    header: Optional[Dict[str, object]] = None
    snapshots: List[Dict[str, object]] = []
    final: Optional[Dict[str, object]] = None
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
            if kind == "snapshot-header":
                header = record
            elif kind == "snapshot":
                snapshots.append(record)
            elif kind == "final":
                final = record
    return {"header": header, "snapshots": snapshots, "final": final}
