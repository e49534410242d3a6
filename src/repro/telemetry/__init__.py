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

Entry point: a :class:`~repro.telemetry.bundle.Telemetry` object bundles
the three subsystems —

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

from .._lazy import lazy_exports

_LAZY = {
    "Telemetry": "bundle",
    "events": "events",
    "write_metrics_json": "export",
    "write_trace_jsonl": "export",
    "build_flight": "flight",
    "dump_flight": "flight",
    "load_flight": "flight",
    "TraceIndex": "index",
    "DispatchProfile": "profiling",
    "MetricsRegistry": "registry",
    "TraceRecorder": "trace",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
