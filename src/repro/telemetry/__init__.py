"""repro.telemetry: deterministic tracing, metrics, and flight recording.

The package is built around one rule: **telemetry must never perturb the
simulation**.  All hooks are plain attribute references that default to
``None``; a disabled component pays one ``is not None`` test and nothing
else, so the PR-1 fast path (and every experiment digest) is bit-identical
with telemetry off.  With telemetry on, every recorded value is an integer
derived from sim time (femtoseconds) or seed-derived streams, so trace and
metrics artifacts are byte-identical across same-seed runs — including
serial vs ``--jobs N``.  Wall-clock measurements are allowed, but they live
in a clearly separated, digest-excluded section of the registry.

Entry point: a :class:`Telemetry` object bundles the three subsystems —

* :class:`~repro.telemetry.trace.TraceRecorder` — bounded ring of typed
  integer event records (see :mod:`repro.telemetry.events`),
* :class:`~repro.telemetry.registry.MetricsRegistry` — counters and gauges
  with Prometheus text exposition and a canonical-JSON snapshot whose
  sha256 is seed-stable,
* the flight recorder (:mod:`repro.telemetry.flight`) — dumps the last N
  trace records plus full counter state when an invariant trips.

See ``docs/OBSERVABILITY.md`` for the event taxonomy, the determinism
rules, and how to open exported traces in Perfetto.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import events  # noqa: F401  (re-export the taxonomy module)
from .events import KIND_NAMES, STATE_CODES, describe, kind_name  # noqa: F401
from .export import (  # noqa: F401
    chrome_trace_events,
    file_sha256,
    read_trace_jsonl,
    summarize_records,
    trace_digest,
    write_chrome_trace,
    write_metrics_json,
    write_trace_jsonl,
)
from .flight import (  # noqa: F401
    DEFAULT_FLIGHT_TAIL,
    FlightDump,
    build_flight,
    dump_flight,
    load_flight,
)
from .index import TraceIndex  # noqa: F401
from .profiling import DispatchProfile
from .registry import (  # noqa: F401
    ExpositionError,
    MetricsRegistry,
    RegistryError,
    parse_exposition,
)
from .trace import DEFAULT_TRACE_CAPACITY, TraceRecord, TraceRecorder  # noqa: F401


class Telemetry:
    """One run's telemetry: a registry plus optional tracer and profiler.

    Pass an instance to :class:`~repro.dtp.network.DtpNetwork`,
    :class:`~repro.faultlab.invariants.InvariantChecker`, or
    :func:`~repro.faultlab.campaign.run_scenario`; components that receive
    ``telemetry=None`` keep their exact pre-telemetry behaviour.
    """

    __slots__ = ("registry", "tracer", "profile", "_finalized")

    def __init__(
        self,
        trace: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        profile_dispatch: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(trace_capacity) if trace else None
        )
        self.profile: Optional[DispatchProfile] = (
            DispatchProfile() if profile_dispatch else None
        )
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_sim(self, sim) -> None:
        """Install the dispatch profiler on a simulator (if profiling)."""
        if self.profile is not None:
            sim.profile = self.profile

    def record_wallclock(self, name: str, duration_ns: int) -> None:
        """Record a wall-clock duration; never enters any digest."""
        if self.profile is None:
            self.profile = DispatchProfile()
        self.profile.record_wall_ns(name, duration_ns)

    # ------------------------------------------------------------------
    # Finalization + export
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Fold deferred state (dispatch profile) into the registry.

        Idempotent — safe to call from both a normal exit path and an
        exception handler that is about to dump a flight artifact.
        """
        if self._finalized:
            return
        if self.profile is not None:
            self.profile.into_registry(self.registry)
        self._finalized = True

    def metrics_snapshot(self) -> Dict[str, Dict]:
        self.finalize()
        return self.registry.snapshot()

    def metrics_digest(self) -> str:
        self.finalize()
        return self.registry.digest()

    def trace_digest(self) -> Optional[str]:
        """sha256 of the canonical trace JSONL (None when not tracing)."""
        if self.tracer is None:
            return None
        return trace_digest(self.tracer)

    def render_prometheus(self) -> str:
        self.finalize()
        return self.registry.render_prometheus()


__all__ = [
    "Telemetry",
    "TraceIndex",
    "TraceRecorder",
    "TraceRecord",
    "MetricsRegistry",
    "DispatchProfile",
    "FlightDump",
    "RegistryError",
    "ExpositionError",
    "DEFAULT_TRACE_CAPACITY",
    "DEFAULT_FLIGHT_TAIL",
    "events",
    "kind_name",
    "describe",
    "KIND_NAMES",
    "STATE_CODES",
    "build_flight",
    "dump_flight",
    "load_flight",
    "parse_exposition",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_trace_jsonl",
    "write_metrics_json",
    "read_trace_jsonl",
    "trace_digest",
    "summarize_records",
    "file_sha256",
]
